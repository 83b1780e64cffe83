(* paper-tables: the paper's own experiment. Tables 1-8 at scale 1 are
   computed through Experiments, rendered with Reporting and compared
   with Paper_data. Almost all of the time goes to the simulators, so
   this is the workload a simulator change shows on, and the one that
   stays flat when only trace handling changes. *)

open Common
module E = Mfu.Experiments
module R = Mfu.Reporting
module P = Mfu.Paper_data
module L = Mfu_loops.Livermore
module Packed = Mfu_exec.Packed

type table =
  | Single of E.single_issue_table list
  | Limits of E.limits_table list
  | Buffer of E.buffer_table
  | Ruu of E.ruu_table

let compute = function
  | 1 -> Single (E.table1 ())
  | 2 -> Limits (E.table2 ())
  | 3 -> Buffer (E.table3 ())
  | 4 -> Buffer (E.table4 ())
  | 5 -> Buffer (E.table5 ())
  | 6 -> Buffer (E.table6 ())
  | 7 -> Ruu (E.table7 ())
  | 8 -> Ruu (E.table8 ())
  | n -> invalid_arg (Printf.sprintf "no table %d" n)

let render n t =
  let title = Printf.sprintf "Table %d" n in
  Mfu_util.Table.render
    (match t with
    | Single x -> R.render_table1 x
    | Limits x -> R.render_table2 x
    | Buffer x -> R.render_buffer_table ~title x
    | Ruu x -> R.render_ruu_table ~title x)

(* Cells a table resolves: the points of this workload. *)
let cells = function
  | Single ts ->
      List.fold_left
        (fun acc (t : E.single_issue_table) ->
          List.fold_left (fun a (_, rates) -> a + Array.length rates) acc t.si_rows)
        0 ts
  | Limits ts ->
      List.fold_left (fun acc (t : E.limits_table) -> acc + (3 * List.length t.lim_rows)) 0 ts
  | Buffer b -> Array.fold_left (fun a row -> a + (2 * Array.length row)) 0 b.buf_cells
  | Ruu r ->
      Array.fold_left
        (fun a by_size -> Array.fold_left (fun a row -> a + (2 * Array.length row)) a by_size)
        0 r.ruu_cells

(* Set-up: generate, pack and period-scan the 14 scale-1 traces from an
   empty trace cache. *)
let generate_traces ~traced =
  Mfu_loops.Trace_cache.clear ();
  Packed.cache_clear ();
  List.iter
    (fun l ->
      if traced then begin
        ignore (span "codegen.s" (fun () -> L.compiled l));
        let tr = alloc_span "execute.s" "execute.alloc_mb" (fun () -> L.trace l) in
        add_layer "trace.instructions" (float_of_int (Array.length tr));
        (* Trace_cache packs every trace it generates, inside execute.s;
           pack.s times the same packing again. *)
        ignore (span "pack.s" (fun () -> Packed.of_trace tr));
        ignore (span "period.s" (fun () -> Packed.period (Packed.cached tr)))
      end
      else ignore (Packed.period (Packed.cached (L.trace l))))
    (L.all ());
  if traced then
    set_layer "trace_cache.mb"
      (float_of_int (Mfu_loops.Trace_cache.stats ()).bytes /. mib)

(* -- output checks ------------------------------------------------------------ *)

let config_name i = Mfu_isa.Config.name (List.nth E.configs i)

let check_outputs tables =
  let get n = List.assoc n tables in
  List.iter
    (fun (l : L.loop) ->
      match Mfu_kern.Codegen.check_against_interpreter (L.compiled l) l.inputs with
      | Ok () -> ()
      | Error e -> check false "loop %d differs from the interpreter: %s" l.number e)
    (L.all ());
  let rate_ok ~what ~width r =
    check (r > 0. && r <= float_of_int width) "%s: rate %g outside (0, %d]" what r width
  in
  (match get 1 with
  | Single ts ->
      List.iter
        (fun (t : E.single_issue_table) ->
          List.iter (fun (_, rates) -> Array.iter (rate_ok ~what:"table 1" ~width:1) rates) t.si_rows)
        ts
  | _ -> assert false);
  let actual_limit =
    match get 2 with
    | Limits ts ->
        List.concat_map
          (fun (t : E.limits_table) ->
            List.filter_map
              (fun (r : E.limits_row) ->
                check
                  (Float.is_finite r.lim_actual && r.lim_actual > 0.)
                  "table 2: limit %g not positive" r.lim_actual;
                if r.lim_pure then
                  Some ((t.lim_class, Mfu_isa.Config.name r.lim_machine), r.lim_actual)
                else None)
              t.lim_rows)
          ts
    | _ -> assert false
  in
  let under_limit ~n cls ci (c : E.issue_cell) =
    let limit = List.assoc (cls, config_name ci) actual_limit in
    List.iter
      (fun r ->
        check (r <= limit) "table %d %s: rate %g above the Pure actual limit %g" n
          (config_name ci) r limit)
      [ c.n_bus; c.one_bus ]
  in
  List.iter
    (fun n ->
      match get n with
      | Buffer b ->
          List.iteri
            (fun si stations ->
              Array.iteri
                (fun ci (c : E.issue_cell) ->
                  let what = Printf.sprintf "table %d, %d stations" n stations in
                  rate_ok ~what ~width:stations c.n_bus;
                  rate_ok ~what ~width:stations c.one_bus;
                  under_limit ~n b.buf_class ci c)
                b.buf_cells.(si))
            b.buf_stations
      | Ruu r ->
          Array.iteri
            (fun ci by_size ->
              Array.iter
                (fun by_unit ->
                  List.iteri
                    (fun ui units ->
                      let c = by_unit.(ui) in
                      let what = Printf.sprintf "table %d, %d units" n units in
                      rate_ok ~what ~width:units c.E.n_bus;
                      rate_ok ~what ~width:units c.one_bus;
                      under_limit ~n r.ruu_class ci c;
                      if units = 1 then
                        check (c.n_bus = c.one_bus)
                          "table %d %s: 1-unit N-Bus %g <> 1-Bus %g" n (config_name ci)
                          c.n_bus c.one_bus)
                    r.ruu_units)
                by_size)
            r.ruu_cells
      | _ -> assert false)
    [ 3; 4; 5; 6; 7; 8 ];
  match (get 3, get 5) with
  | Buffer t3, Buffer t5 ->
      check (t3.buf_cells.(0) = t5.buf_cells.(0))
        "the 1-station rows of tables 3 and 5 differ"
  | _ -> assert false

(* Pearson r against the paper over Tables 1 and 3-8, each table
   weighted by the cells it shares with the paper. *)
let paper_pearson tables =
  let cmp n =
    let name = Printf.sprintf "t%d" n in
    match List.assoc n tables with
    | Single t -> R.compare_cells ~paper:(P.flatten_table1 P.table1) ~measured:(R.flatten_measured_table1 t)
    | Buffer b ->
        let paper = [| P.table3; P.table4; P.table5; P.table6 |].(n - 3) in
        R.compare_cells ~paper:(P.flatten_buffer ~name paper) ~measured:(R.flatten_measured_buffer ~name b)
    | Ruu r ->
        let paper = if n = 7 then P.table7 else P.table8 in
        R.compare_cells ~paper:(P.flatten_ruu ~name paper) ~measured:(R.flatten_measured_ruu ~name r)
    | Limits _ -> assert false
  in
  let cs = List.map cmp [ 1; 3; 4; 5; 6; 7; 8 ] in
  let total = List.fold_left (fun a (c : R.comparison) -> a + c.cells) 0 cs in
  List.fold_left (fun a (c : R.comparison) -> a +. (float_of_int c.cells *. c.pearson)) 0. cs
  /. float_of_int total

(* -- the workload --------------------------------------------------------------- *)

(* One pass computes and renders Tables 1-8; returns each table with its
   rendered text and its seconds. *)
let pass ?(traced = false) () =
  List.map
    (fun n ->
      let t, dt =
        time (fun () ->
            let t =
              if traced then
                alloc_span (Printf.sprintf "experiments.table%d.s" n) "experiments.alloc_mb"
                  (fun () -> compute n)
              else compute n
            in
            let text = if traced then span "render.s" (fun () -> render n t) else render n t in
            (t, text))
      in
      (n, (t, dt)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* The paper's tables have no free inputs, so this workload takes no
   seed: a seeded order of the tables or of the set-up loops moved the
   heap's high-water mark by up to 8% from seed to seed. *)
let run ~seconds ~quick ~traced =
  let setups = if quick then 1 else 3 in
  let last_pass, attempted, metrics =
    if traced then begin
      generate_traces ~traced:true;
      let (_ : (int * ((table * string) * float)) list), untraced = time (fun () -> pass ()) in
      Mfu_sim.Steady.reset_stats ();
      let p, traced_s = time (fun () -> pass ~traced:true ()) in
      let s = Mfu_sim.Steady.stats () in
      set_layer "steady.telescoped" (float_of_int s.telescoped);
      set_layer "steady.fallback" (float_of_int s.fallback);
      set_layer "steady.aperiodic" (float_of_int s.aperiodic);
      set_layer "overhead.untraced_s" untraced;
      set_layer "overhead.traced_s" traced_s;
      let n_cells = List.fold_left (fun a (_, ((t, _), _)) -> a + cells t) 0 p in
      (p, 2 * n_cells, layer_metrics ())
    end
    else begin
      let setup = ref [] and best = Hashtbl.create 8 and passes = ref [] and peak = ref 0. in
      let t0 = now () in
      while !passes = [] || ((not quick) && (List.length !passes < 2 || now () -. t0 < seconds)) do
        (* A few set-ups before every pass, so that their median samples
           the same stretch of time as the passes do. *)
        for _ = 1 to setups do
          setup := snd (time (fun () -> generate_traces ~traced:false)) :: !setup
        done;
        let p = pass () in
        List.iter
          (fun (n, (_, dt)) ->
            Hashtbl.replace best n (Float.min dt (Option.value ~default:infinity (Hashtbl.find_opt best n))))
          p;
        passes := p :: !passes;
        (* The peak of one pass, as a tables.exe run would see it; later
           passes only add GC drift that depends on how many fit. *)
        if !peak = 0. then peak := peak_rss_mb ()
      done;
      let text p = List.map (fun (_, ((_, s), _)) -> s) p in
      let last = List.hd !passes in
      List.iter
        (fun p -> check (text p = text last) "passes rendered different tables")
        !passes;
      let n_cells = List.fold_left (fun a (_, ((t, _), _)) -> a + cells t) 0 last in
      let fastest = Hashtbl.fold (fun _ dt a -> a +. dt) best 0. in
      report "passes" (float_of_int (List.length !passes)) "count";
      report "fastest_tables_s" fastest "s";
      ( last,
        n_cells * List.length !passes,
        [
          ("setup_s", median !setup, "s");
          ("points_per_s", float_of_int n_cells /. fastest, "points/s");
          ("peak_mem_mb", !peak, "MB");
        ] )
    end
  in
  let tables = List.map (fun (n, ((t, _), _)) -> (n, t)) last_pass in
  check_outputs tables;
  report "paper_pearson" (paper_pearson tables) "r";
  (attempted, 0, metrics)
