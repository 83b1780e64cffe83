(* scaled-sweep: a cold sweep of scaled periodic loops into an empty
   store. RUU units {1,4} x sizes {10,50,100} x M11BR5 on loops 5, 11
   and 12 at scale 100: 18 points over about 1.3 M trace instructions.
   Trace handling (execute, digest) dominates and the simulators, being
   steady-state accelerated, do little, so this is where a change to the
   trace representation shows.

   Every pass runs in a fresh process: the trace cache, the packed-trace
   cache and the key digests are process-wide memo tables, and only a
   new process makes a pass cold. *)

open Common
module Axes = Mfu_explore.Axes
module Store = Mfu_explore.Store
module Sweep = Mfu_explore.Sweep
module L = Mfu_loops.Livermore
module Packed = Mfu_exec.Packed
module Sim_types = Mfu_sim.Sim_types

let spec ~scale =
  match
    Axes.of_string
      (Printf.sprintf "units=1,4; size=10,50,100; config=m11br5; loops=5,11,12; scale=%d" scale)
  with
  | Ok t -> t
  | Error e -> failwith e

let points ~seed ~scale = shuffle (rng seed) (Axes.enumerate (spec ~scale))

(* -- child processes ---------------------------------------------------------- *)

(* The set-up a cold sweep needs before its first point: a process, an
   open empty store and the expanded axes. *)
let setup_child ~dir ~scale =
  ignore (Store.open_ dir);
  ignore (points ~seed:0 ~scale)

(* The same work as [Sweep.run ~jobs:1] on an empty store, stage by
   stage, with each layer's public call timed. *)
let staged_sweep store pts =
  let loops =
    List.fold_left
      (fun seen (p : Axes.point) -> if List.mem p.loop seen then seen else seen @ [ p.loop ])
      [] pts
  in
  List.iter
    (fun n ->
      let p = List.find (fun (p : Axes.point) -> p.loop = n) pts in
      let l = L.scaled ~scale:p.scale n in
      ignore (span "codegen.s" (fun () -> L.compiled l));
      let tr = alloc_span "execute.s" "execute.alloc_mb" (fun () -> L.trace l) in
      add_layer "trace.instructions" (float_of_int (Array.length tr));
      (* Trace_cache packs every trace it generates, inside execute.s;
         pack.s times the same packing again. *)
      ignore (span "pack.s" (fun () -> Packed.of_trace tr));
      ignore (span "period.s" (fun () -> Packed.period (Packed.cached tr)));
      ignore (alloc_span "digest.s" "digest.alloc_mb" (fun () -> Axes.key p)))
    loops;
  set_layer "trace_cache.mb" (float_of_int (Mfu_loops.Trace_cache.stats ()).bytes /. mib);
  let keyed = span_ms "sweep.keyed.ms" (fun () -> Sweep.keyed pts) in
  let misses, _ = Sweep.misses ~store keyed in
  Mfu_sim.Steady.reset_stats ();
  List.iter
    (fun ((p : Axes.point), key) ->
      let r = span "sim.s" (fun () -> Axes.run p) in
      add_layer "sim.cycles" (float_of_int r.Sim_types.cycles);
      add_layer "sim.instructions" (float_of_int r.instructions);
      span_ms "store.put.ms" (fun () -> Store.put ~meta:(Sweep.meta_of_point p) store ~key r))
    misses;
  let s = Mfu_sim.Steady.stats () in
  set_layer "steady.telescoped" (float_of_int s.telescoped);
  set_layer "steady.fallback" (float_of_int s.fallback);
  set_layer "steady.aperiodic" (float_of_int s.aperiodic);
  List.length misses

(* One cold pass; prints a JSON line for the parent. *)
let pass_child ~dir ~seed ~scale ~traced =
  let store = Store.open_ dir in
  let pts = points ~seed ~scale in
  let resolved, dt =
    time (fun () ->
        if traced then staged_sweep store pts
        else List.length (fst (Sweep.run ~jobs:1 ~store pts)))
  in
  let open Mfu_util.Json in
  print_endline
    (to_string
       (Obj
          [
            ("pass_s", Float dt);
            ("peak_mb", Float (peak_rss_mb ()));
            ("resolved", Int resolved);
            ("layers", layers_json ());
          ]))

(* -- the workload ------------------------------------------------------------- *)

let run_pass ~dir ~seed ~scale ~traced =
  let out =
    run_child Sys.executable_name
      [
        "--sweep-child"; dir; "--seed"; string_of_int seed; "--scale"; string_of_int scale;
        "--trace"; (if traced then "1" else "0");
      ]
  in
  let json =
    match Mfu_util.Json.of_string (String.trim out) with Ok j -> j | Error e -> failwith e
  in
  let num k =
    match Option.bind (Mfu_util.Json.member k json) Mfu_util.Json.to_float with
    | Some v -> v
    | None -> failwith ("sweep child: no " ^ k)
  in
  (num "pass_s", num "peak_mb", int_of_float (num "resolved"), json)

(* A reopened store must return every point, and each result must equal
   an unaccelerated run of the same simulator on the same trace. *)
let check_store ~dir pts =
  let store = Store.open_ dir in
  List.iter
    (fun ((p : Axes.point), key) ->
      match (Store.lookup store ~key, p.machine) with
      | `Hit r, Axes.Ruu m ->
          let tr = L.trace (L.scaled ~scale:p.scale p.loop) in
          check (r.Sim_types.instructions = Array.length tr)
            "LL%d: %d instructions for a %d-entry trace" p.loop r.instructions (Array.length tr);
          let exact =
            Mfu_sim.Ruu.simulate ~accel:false ~branches:m.branches ~config:p.config
              ~issue_units:m.issue_units ~ruu_size:m.ruu_size ~bus:m.bus tr
          in
          check (r = exact) "%s: stored %d cycles, unaccelerated run %d" key r.cycles exact.cycles
      | `Hit _, _ -> check false "%s: not an RUU point" key
      | (`Miss | `Corrupt), _ -> check false "%s: missing from the reopened store" key)
    (Sweep.keyed pts)

let run ~seed ~seconds ~quick ~traced =
  let scale = if quick then 10 else 100 in
  let root = Filename.concat work_root "scaled-sweep" in
  ignore (fresh_dir root);
  let pts = points ~seed ~scale in
  let n = List.length pts in
  let pass_dir k = Filename.concat root (Printf.sprintf "pass%d" k) in
  let check_pass k resolved =
    if resolved < n then Printf.eprintf "pass %d resolved %d of %d points\n%!" k resolved n;
    check_store ~dir:(pass_dir k) pts;
    n - resolved
  in
  let attempted, failed, metrics =
    if traced then begin
      let untraced, _, r0, _ = run_pass ~dir:(pass_dir 0) ~seed ~scale ~traced:false in
      let traced_s, _, r1, json = run_pass ~dir:(pass_dir 1) ~seed ~scale ~traced:true in
      Option.iter merge_layers (Mfu_util.Json.member "layers" json);
      set_layer "overhead.untraced_s" untraced;
      set_layer "overhead.traced_s" traced_s;
      let failed = check_pass 0 r0 + check_pass 1 r1 in
      (2 * n, failed, layer_metrics ())
    end
    else begin
      let setup = ref [] and passes = ref [] in
      let set_up () =
        let dir = Filename.concat root (Printf.sprintf "setup%d" (List.length !setup)) in
        let (_ : string), dt =
          time (fun () ->
              run_child Sys.executable_name [ "--setup-child"; dir; "--scale"; string_of_int scale ])
        in
        setup := dt :: !setup
      in
      let t0 = now () in
      while !passes = [] || ((not quick) && (List.length !passes < 2 || now () -. t0 < seconds)) do
        (* A few set-ups before every pass, so that their median samples
           the same stretch of time as the passes do. *)
        for _ = 1 to if quick then 1 else 3 do set_up () done;
        let k = List.length !passes in
        if k > 0 then remove_tree (pass_dir (k - 1));
        passes := run_pass ~dir:(pass_dir k) ~seed ~scale ~traced:false :: !passes
      done;
      let k = List.length !passes - 1 in
      let failed =
        List.fold_left (fun a (_, _, resolved, _) -> a + (n - resolved)) 0 !passes
      in
      let _, _, last_resolved, _ = List.hd !passes in
      ignore (check_pass k last_resolved);
      let fastest = minimum (List.map (fun (s, _, _, _) -> s) !passes) in
      report "passes" (float_of_int (k + 1)) "count";
      report "fastest_pass_s" fastest "s";
      ( n * (k + 1),
        failed,
        [
          ("setup_s", median !setup, "s");
          ("points_per_s", float_of_int n /. fastest, "points/s");
          ("peak_mem_mb", median (List.map (fun (_, m, _, _) -> m) !passes), "MB");
        ] )
    end
  in
  List.iter
    (fun l ->
      match Mfu_kern.Codegen.check_against_interpreter (L.compiled l) l.L.inputs with
      | Ok () -> ()
      | Error e -> check false "scaled LL%d differs from the interpreter: %s" l.number e)
    (List.map (fun n -> L.scaled ~scale n) [ 5; 11; 12 ]);
  (attempted, failed, metrics)
