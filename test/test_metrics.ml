(* The metrics layer's two contracts, checked across the whole
   simulator/configuration matrix:

   1. CONSERVATION — every simulated cycle is classified as exactly one of
      useful issue work or a single stall cause, so
      issue_cycles + sum(stalls) = total_cycles = the result's cycle count,
      and every cycle lands in exactly one issue-width histogram bucket.

   2. NON-INTERFERENCE — passing ~metrics never changes a simulator's
      result; the collector is write-only from the simulation's point of
      view.

   Both are checked on hand-built corner-case traces, the small Livermore
   loops, long Livermore loops whose runs telescope, and QCheck-random
   traces. *)

module Reg = Mfu_isa.Reg
module Fu = Mfu_isa.Fu
module Config = Mfu_isa.Config
module Trace = Mfu_exec.Trace
module Si = Mfu_sim.Single_issue
module Bi = Mfu_sim.Buffer_issue
module Ruu = Mfu_sim.Ruu
module Dep = Mfu_sim.Dep_single
module Memory_system = Mfu_sim.Memory_system
module Sim_types = Mfu_sim.Sim_types
module Metrics = Sim_types.Metrics
module Steady = Mfu_sim.Steady
module Limits = Mfu_limits.Limits
module Livermore = Mfu_loops.Livermore

(* -- the simulator/config matrix ------------------------------------------- *)

(* A runner wraps one (simulator, parameters) point: run a trace with an
   optional collector and return the cycle count. *)
type runner = { rname : string; run : ?metrics:Metrics.t -> Trace.t -> int }

let runners config =
  let lbl fmt = Printf.ksprintf (fun s -> Config.name config ^ "/" ^ s) fmt in
  let single =
    List.map
      (fun (n, org) ->
        {
          rname = lbl "single:%s" n;
          run =
            (fun ?metrics t -> (Si.simulate ?metrics ~config org t).cycles);
        })
      [
        ("Simple", Si.Simple);
        ("SerialMemory", Si.Serial_memory);
        ("NonSegmented", Si.Non_segmented);
        ("CRAY-like", Si.Cray_like);
      ]
    @ [
        (* a non-ideal memory system exercises the Memory_conflict cause *)
        {
          rname = lbl "single:CRAY-like+banks";
          run =
            (fun ?metrics t ->
              (Si.simulate ?metrics ~memory:Memory_system.cray1_banks ~config
                 Si.Cray_like t)
                .cycles);
        };
      ]
  in
  let dep =
    List.map
      (fun (n, scheme) ->
        {
          rname = lbl "dep:%s" n;
          run =
            (fun ?metrics t -> (Dep.simulate ?metrics ~config scheme t).cycles);
        })
      [ ("Scoreboard", Dep.Scoreboard); ("Tomasulo", Dep.Tomasulo) ]
  in
  let buffer =
    List.concat_map
      (fun (pn, policy) ->
        List.concat_map
          (fun stations ->
            List.concat_map
              (fun (bn, bus) ->
                List.map
                  (fun alignment ->
                    {
                      rname =
                        lbl "buffer:%s/%d/%s/%s" pn stations bn
                          (Bi.alignment_to_string alignment);
                      run =
                        (fun ?metrics t ->
                          (Bi.simulate ?metrics ~alignment ~config ~policy
                             ~stations ~bus t)
                            .cycles);
                    })
                  [ Bi.Dynamic; Bi.Static ])
              [ ("nbus", Sim_types.N_bus); ("1bus", Sim_types.One_bus) ])
          [ 1; 3; 8 ])
      [ ("inorder", Bi.In_order); ("ooo", Bi.Out_of_order) ]
  in
  let ruu =
    List.concat_map
      (fun ruu_size ->
        List.concat_map
          (fun issue_units ->
            List.map
              (fun (bn, bus) ->
                {
                  rname = lbl "ruu:%d/%d/%s" ruu_size issue_units bn;
                  run =
                    (fun ?metrics t ->
                      (Ruu.simulate ?metrics ~config ~issue_units ~ruu_size
                         ~bus t)
                        .cycles);
                })
              [ ("nbus", Sim_types.N_bus); ("1bus", Sim_types.One_bus) ])
          [ 1; 4 ])
      [ 10; 50 ]
    @ List.map
        (fun (bn, branches) ->
          {
            rname = lbl "ruu:50/4/nbus/%s" bn;
            run =
              (fun ?metrics t ->
                (Ruu.simulate ?metrics ~branches ~config ~issue_units:4
                   ~ruu_size:50 ~bus:Sim_types.N_bus t)
                  .cycles);
          })
        [
          ("oracle", Ruu.Oracle);
          ("static-taken", Ruu.Static_taken);
          ("bimodal16", Ruu.Bimodal 16);
        ]
  in
  let limits =
    [
      {
        rname = lbl "limits:critical-path";
        run = (fun ?metrics t -> Limits.critical_path ?metrics ~config t);
      };
    ]
  in
  List.concat [ single; dep; buffer; ruu; limits ]

let all_runners = List.concat_map runners Config.all

(* -- fixed traces ----------------------------------------------------------- *)

(* Statically aligned buffers carve the window from each entry's static
   address; the Tracegen helpers default static_index to 0, which would put
   an arbitrarily long trace in one aligned block. Number synthetic traces
   as straight-line code (the Livermore traces carry real addresses). *)
let straightline t =
  Array.mapi (fun i (e : Trace.entry) -> { e with Trace.static_index = i }) t

let fixed_traces =
  lazy
    [
      ("empty", Tracegen.of_list []);
      ("one-op", straightline (Tracegen.of_list [ Tracegen.fadd ~d:1 ~a:2 ~b:3 ]));
      ( "raw-chain",
        straightline
        @@ Tracegen.of_list
          [
            Tracegen.imm ~d:1;
            Tracegen.fadd ~d:2 ~a:1 ~b:1;
            Tracegen.fadd ~d:3 ~a:2 ~b:2;
            Tracegen.fadd ~d:4 ~a:3 ~b:3;
          ] );
      ( "waw-pair",
        straightline
        @@ Tracegen.of_list
          [
            Tracegen.fmul ~d:1 ~a:2 ~b:3;
            Tracegen.fadd ~d:1 ~a:4 ~b:5;
            Tracegen.fadd ~d:2 ~a:1 ~b:1;
          ] );
      ( "memory+branch",
        straightline
        @@ Tracegen.of_list
          [
            Tracegen.load ~d:1 ~addr:0;
            Tracegen.store ~v:1 ~addr:0;
            Tracegen.load ~d:2 ~addr:0;
            Tracegen.branch ~taken:true;
            Tracegen.fadd ~d:3 ~a:1 ~b:2;
          ] );
      ("livermore-1", Livermore.trace (Livermore.loop1 ~n:12 ()));
      ("livermore-3", Livermore.trace (Livermore.loop3 ~n:16 ()));
      ("livermore-12", Livermore.trace (Livermore.loop12 ~n:16 ()));
    ]

(* -- the properties --------------------------------------------------------- *)

let hist_sum a = Array.fold_left ( + ) 0 a

let check_conserved ~ctx (r : runner) trace =
  let m = Metrics.create () in
  let cycles = r.run ~metrics:m trace in
  let where = Printf.sprintf "%s on %s" r.rname ctx in
  if not (Metrics.conserved m) then
    Alcotest.failf "%s: issue %d + stalls %d <> total %d" where m.issue_cycles
      (Metrics.total_stall_cycles m) m.total_cycles;
  if m.total_cycles <> cycles then
    Alcotest.failf "%s: collector saw %d cycles, simulator reported %d" where
      m.total_cycles cycles;
  if hist_sum m.issued_per_cycle <> m.total_cycles then
    Alcotest.failf "%s: issue-width histogram sums to %d, not %d cycles" where
      (hist_sum m.issued_per_cycle) m.total_cycles;
  Array.iter (fun s -> assert (s >= 0)) m.stalls

let check_unchanged ~ctx (r : runner) trace =
  let plain = r.run trace in
  let with_metrics = r.run ~metrics:(Metrics.create ()) trace in
  if plain <> with_metrics then
    Alcotest.failf "%s on %s: %d cycles without metrics, %d with" r.rname ctx
      plain with_metrics

let test_conservation_fixed () =
  List.iter
    (fun (ctx, trace) ->
      List.iter (fun r -> check_conserved ~ctx r trace) all_runners)
    (Lazy.force fixed_traces)

let test_unchanged_fixed () =
  List.iter
    (fun (ctx, trace) ->
      List.iter (fun r -> check_unchanged ~ctx r trace) all_runners)
    (Lazy.force fixed_traces)

(* Collectors accumulate: two runs into one collector see the summed
   cycles, so experiment code can fold a loop class into one Metrics.t. *)
let test_accumulation () =
  let trace = Livermore.trace (Livermore.loop1 ~n:12 ()) in
  List.iter
    (fun r ->
      let once = Metrics.create () and twice = Metrics.create () in
      let c1 = r.run ~metrics:once trace in
      let (_ : int) = r.run ~metrics:twice trace in
      let (_ : int) = r.run ~metrics:twice trace in
      if twice.total_cycles <> 2 * c1 then
        Alcotest.failf "%s: accumulated %d cycles over two runs of %d" r.rname
          twice.total_cycles c1;
      if not (Metrics.conserved twice) then
        Alcotest.failf "%s: accumulation broke conservation" r.rname)
    (runners Config.m11br5)

(* Instruction counts: every simulator books each trace entry exactly once
   (the dataflow walk books the whole trace in one call). *)
let test_instruction_counts () =
  let trace = Livermore.trace (Livermore.loop5 ~n:16 ()) in
  List.iter
    (fun r ->
      let m = Metrics.create () in
      let (_ : int) = r.run ~metrics:m trace in
      Alcotest.(check int)
        (r.rname ^ ": instructions recorded")
        (Array.length trace) m.instructions)
    (runners Config.m11br5)

(* Long loops, where the default runs telescope whole periods in closed
   form and scale every counter: the telescoped metrics must still
   conserve cycles, and still leave the results untouched. *)
let long_loops =
  lazy
    [
      ("livermore-1/400", Livermore.trace (Livermore.loop1 ~n:400 ()));
      ("livermore-12/400", Livermore.trace (Livermore.loop12 ~n:400 ()));
    ]

let long_loop_runners = runners Config.m11br5 @ runners (List.nth Config.all 3)

let check_telescoped check =
  Steady.reset_stats ();
  List.iter
    (fun (ctx, trace) ->
      List.iter (fun r -> check ~ctx r trace) long_loop_runners)
    (Lazy.force long_loops);
  if (Steady.stats ()).Steady.telescoped = 0 then
    Alcotest.fail "no long-loop run telescoped"

let test_conservation_telescoped () = check_telescoped check_conserved
let test_unchanged_telescoped () = check_telescoped check_unchanged

(* -- random traces (same generator family as test_cross_sim) ---------------- *)

let entry_gen =
  let open QCheck.Gen in
  let sreg = map (fun i -> Reg.S i) (int_range 0 7) in
  let areg = map (fun i -> Reg.A i) (int_range 0 7) in
  let addr = int_range 0 31 in
  let scalar_op fu =
    map3 (fun d a b -> Tracegen.entry ~dest:d ~srcs:[ a; b ] fu) sreg sreg sreg
  in
  frequency
    [
      (3, scalar_op Fu.Float_add);
      (3, scalar_op Fu.Float_multiply);
      (2, scalar_op Fu.Scalar_logical);
      (2, scalar_op Fu.Address_add);
      ( 3,
        map2
          (fun d a ->
            Tracegen.entry ~dest:d ~srcs:[ Reg.A 1 ] ~parcels:2
              ~kind:(Trace.Load a) Fu.Memory)
          sreg addr );
      ( 2,
        map2
          (fun v a ->
            Tracegen.entry ~srcs:[ v; Reg.A 1 ] ~parcels:2 ~kind:(Trace.Store a)
              Fu.Memory)
          sreg addr );
      (3, map (fun d -> Tracegen.entry ~dest:d Fu.Transfer) sreg);
      ( 1,
        map
          (fun d -> Tracegen.entry ~dest:d ~srcs:[ Reg.A 2 ] Fu.Address_multiply)
          areg );
      (1, map (fun taken -> Tracegen.branch ~taken) bool);
    ]

let arb_trace =
  QCheck.make
    ~print:(fun t ->
      String.concat "\n"
        (Array.to_list (Array.map (Format.asprintf "%a" Trace.pp_entry) t)))
    QCheck.Gen.(
      map
        (fun l -> straightline (Array.of_list l))
        (list_size (int_range 0 50) entry_gen))

(* The random property runs the two extreme machine variants; the fixed
   matrix above already covers all four. *)
let random_runners =
  runners Config.m11br5 @ runners (List.nth Config.all 3)

let prop_conserved =
  QCheck.Test.make ~name:"conservation on random traces" ~count:60 arb_trace
    (fun t ->
      List.iter (fun r -> check_conserved ~ctx:"random" r t) random_runners;
      true)

let prop_unchanged =
  QCheck.Test.make ~name:"metrics never change results (random)" ~count:60
    arb_trace (fun t ->
      List.iter (fun r -> check_unchanged ~ctx:"random" r t) random_runners;
      true)

let () =
  Alcotest.run "metrics"
    [
      ( "conservation",
        [
          Alcotest.test_case "fixed traces, full matrix" `Quick
            test_conservation_fixed;
          Alcotest.test_case "accumulation across runs" `Quick
            test_accumulation;
          Alcotest.test_case "instruction counts" `Quick
            test_instruction_counts;
          QCheck_alcotest.to_alcotest prop_conserved;
          Alcotest.test_case "telescoped long loops" `Quick
            test_conservation_telescoped;
        ] );
      ( "non-interference",
        [
          Alcotest.test_case "fixed traces, full matrix" `Quick
            test_unchanged_fixed;
          QCheck_alcotest.to_alcotest prop_unchanged;
          Alcotest.test_case "telescoped long loops" `Quick
            test_unchanged_telescoped;
        ] );
    ]
