(* The benchmark's entry point. perfbench/run.py builds this executable
   and serve.exe, then runs

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]

   from the root of the checkout. The last line of standard output is
   the result: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. The --sweep-child and --setup-child modes are
   the fresh processes the scaled-sweep workload spawns. *)

open Common

let workloads = [ "paper-tables"; "scaled-sweep"; "serve-warm" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let quick = ref false in
  let sweep_child = ref "" and setup_child = ref "" and scale = ref 100 in
  let spec =
    [
      ("--workload", Arg.Symbol (workloads, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N order in which operations are issued (unused by paper-tables)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--quick", Arg.Set quick, " reduced sizes, every check");
      ("--sweep-child", Arg.Set_string sweep_child, "DIR (internal) one cold sweep pass");
      ("--setup-child", Arg.Set_string setup_child, "DIR (internal) one sweep set-up");
      ("--scale", Arg.Set_int scale, "N (internal) scale of the sweep child");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  Mfu_util.Pool.set_jobs (Some 1);
  if !setup_child <> "" then Scaled_sweep.setup_child ~dir:!setup_child ~scale:!scale
  else if !sweep_child <> "" then
    Scaled_sweep.pass_child ~dir:!sweep_child ~seed:!seed ~scale:!scale ~traced:(!trace = 1)
  else begin
    if !workload = "" then (prerr_endline usage; exit 2);
    let traced = !trace = 1 and quick = !quick and seed = !seed and seconds = !seconds in
    let (attempted, failed, metrics), wall =
      time (fun () ->
          match !workload with
          | "paper-tables" -> Paper_tables.run ~seconds ~quick ~traced
          | "scaled-sweep" -> Scaled_sweep.run ~seed ~seconds ~quick ~traced
          | _ -> Serve_warm.run ~seed ~seconds ~quick ~traced)
    in
    report "run_wall_s" wall "s";
    if traced then write_trace_file ~workload:!workload;
    print_result ~attempted ~failed metrics;
    if !failures <> [] then exit 1
  end
