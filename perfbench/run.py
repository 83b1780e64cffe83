#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of the repository. The first form prints report lines
and, as its last line, one JSON result object. --quick runs every
workload at reduced size with every output check, untraced and traced,
and checks that each run reports exactly the metrics BENCHMARK.json
names. See perfbench/README.md.
"""

import json
import os
import subprocess
import sys

MAIN = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of the repository (no dune-project here)")
    # No shared dune cache: a run reads and writes only inside the checkout.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe", "./bin/serve.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def quick():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [MAIN, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"],
                stdout=subprocess.PIPE, text=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            good = out.returncode == 0 and result["correct"] and result["failed"] == 0 and units == expected[trace]
            ok = ok and good
            print(f"{workload:13} trace={trace} {'ok' if good else 'FAILED'} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    sys.exit(0 if ok else 1)


def main():
    build()
    os.environ["MFU_JOBS"] = "1"
    if sys.argv[1:] == ["--quick"]:
        quick()
    sys.exit(subprocess.run([MAIN] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
