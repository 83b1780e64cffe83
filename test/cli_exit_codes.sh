#!/bin/sh
# CLI exit-code checks: usage errors exit 2 with a message instead of an
# uncaught exception, and --help exits 0.
# Usage: cli_exit_codes.sh TABLES_EXE BENCH_CORE_EXE BENCH_STORE_EXE
tables=$1
bench_core=$2
bench_store=$3
failed=0

expect() {
  want=$1
  shift
  "$@" >/dev/null 2>cli_exit_codes.err
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$*' exited $got, expected $want" >&2
    cat cli_exit_codes.err >&2
    failed=1
  elif grep -q "exception" cli_exit_codes.err; then
    echo "FAIL: '$*' reported an exception" >&2
    cat cli_exit_codes.err >&2
    failed=1
  fi
}

expect 2 "$tables" --table 9
expect 2 "$tables" --table 0
expect 2 "$tables" --scale 0
expect 0 "$tables" --help=plain
expect 0 "$bench_core" --help
expect 2 "$bench_core" --no-such-flag
expect 2 "$bench_core" --only no-such-family
expect 0 "$bench_store" --help
expect 2 "$bench_store" --no-such-flag
expect 2 "$bench_store" --points many
rm -f cli_exit_codes.err
exit $failed
