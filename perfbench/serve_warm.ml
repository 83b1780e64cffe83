(* serve-warm: serve.exe -j 1 (default cache, guided ordering) on an
   empty store, as its own process, with the benchmark as its one client
   over one connection.

   Set-up is server start plus one cold table7 query (960 points): the
   surrogate ranks the misses, they are simulated and published. That is
   the store's write path. The timed phase is a closed loop of warm
   table7 queries, the read path through Sweep.keyed, the result cache,
   Protocol encoding, HTTP streaming and client decoding; it does no
   simulation and no trace work. A store change that speeds reads by
   slowing publication therefore shows as a worse setup_s. *)

open Common
module Axes = Mfu_explore.Axes
module Store = Mfu_explore.Store
module Sweep = Mfu_explore.Sweep
module Client = Mfu_serve.Client
module Protocol = Mfu_serve.Protocol
module Server = Mfu_serve.Server
module E = Mfu.Experiments
module Json = Mfu_util.Json

(* The table7 grid spelled with its clauses and values in a seeded
   order; every spelling enumerates the same 960 points. *)
let spec_text st =
  let values f xs = String.concat "," (List.map f (shuffle st xs)) in
  String.concat "; "
    (shuffle st
       [
         "units=" ^ values string_of_int [ 1; 2; 3; 4 ];
         "size=" ^ values string_of_int [ 10; 20; 30; 40; 50; 100 ];
         "bus=" ^ values Fun.id [ "nbus"; "1bus" ];
         "branch=stall";
         "config=" ^ values Fun.id [ "m11br5"; "m11br2"; "m5br5"; "m5br2" ];
         "loops=" ^ values string_of_int [ 5; 6; 11; 13; 14 ];
       ])

type server = { pid : int; store_dir : string; client : Client.t }

(* A relative socket path keeps clear of the sun_path length limit
   wherever the checkout lives. *)
let start ~dir =
  let store_dir = Filename.concat dir "store" in
  let sock = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "serve.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid =
    spawn ~stderr:log "_build/default/bin/serve.exe" [ "-j"; "1"; "--listen"; "unix:" ^ sock; "--store"; store_dir ]
  in
  Unix.close log;
  let deadline = now () +. 30. in
  let rec connect () =
    match Client.connect (Server.Unix_sock sock) with
    | c -> c
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when now () < deadline ->
        Unix.sleepf 0.002;
        connect ()
  in
  { pid; store_dir; client = connect () }

(* SIGTERM must drain the server and end it with status 0. *)
let stop s =
  Client.close s.client;
  Unix.kill s.pid Sys.sigterm;
  check (exited_ok (wait_child s.pid)) "serve.exe did not exit cleanly on SIGTERM"

(* One query; returns the streamed points and the summary. *)
let query client ~spec =
  let got = ref [] in
  let aborted = ref 0 in
  let on_event = function
    | Protocol.Point e -> got := e :: !got
    | Aborted _ -> incr aborted
    | Summary _ -> ()
  in
  match Client.query ~on_event client ~spec with
  | Ok summary -> (!got, !aborted, summary)
  | Error e -> failwith ("query failed: " ^ e)

let expected = 960

(* Failed operations of one query: points missing or aborted. *)
let failed_points ~what (points, aborted, (s : Protocol.summary)) =
  let n = List.length points in
  let failed = max 0 (expected - n) + max aborted s.aborted in
  if failed > 0 then Printf.eprintf "%s query: %d of %d points failed\n%!" what failed expected;
  failed

(* The harmonic means of the streamed results must reproduce
   Experiments.table7, which runs the simulators directly. *)
let check_table7 keyed (points : Protocol.point_event list) =
  let by_key = Hashtbl.create 1024 in
  List.iter (fun (e : Protocol.point_event) -> Hashtbl.replace by_key e.key e) points;
  let t7 = E.table7 () in
  let loops = List.map (fun (l : Mfu_loops.Livermore.loop) -> l.number) (Mfu_loops.Livermore.of_class Scalar) in
  List.iteri
    (fun ci config ->
      List.iteri
        (fun si size ->
          List.iteri
            (fun ui units ->
              let cell bus =
                Mfu_util.Stats.harmonic_mean
                  (List.map
                     (fun loop ->
                       let key =
                         List.find_map
                           (fun ((p : Axes.point), key) ->
                             match p.machine with
                             | Axes.Ruu m
                               when p.loop = loop && p.config = config && m.ruu_size = size
                                    && m.issue_units = units && m.bus = bus ->
                                 Some key
                             | _ -> None)
                           keyed
                       in
                       match Option.bind key (Hashtbl.find_opt by_key) with
                       | Some e ->
                           Mfu_sim.Sim_types.issue_rate { cycles = e.cycles; instructions = e.instructions }
                       | None -> nan)
                     loops)
              in
              let c = t7.ruu_cells.(ci).(si).(ui) in
              check
                (cell Mfu_sim.Sim_types.N_bus = c.n_bus && cell One_bus = c.one_bus)
                "table 7 %s size %d units %d: served results do not reproduce the cell"
                (Mfu_isa.Config.name config) size units)
            t7.ruu_units)
        t7.ruu_sizes)
    E.configs

(* -- the layers of the read path, replayed in this process ------------------- *)

let timed_ms ~reps f = median (List.init reps (fun _ -> 1000. *. snd (time f)))

let replay ~served_dir ~dir keyed ~p50_ms =
  let served = Store.open_ served_dir in
  let results =
    List.map
      (fun ((p : Axes.point), key) ->
        match Store.lookup served ~key with
        | `Hit r -> (p, key, r)
        | `Miss | `Corrupt -> failwith (key ^ ": not in the served store"))
      keyed
  in
  let points = List.map (fun (p, _, _) -> p) results in
  let n = float_of_int (List.length results) in
  let lookups store () =
    List.iter (fun (_, key, _) -> ignore (Store.lookup store ~key)) results
  in
  let encode () =
    List.map
      (fun (point, key, result) ->
        Protocol.event_line (Point (Protocol.point_event ~point ~key ~result ~source:Store)))
      results
  in
  let lines = encode () in
  let decode () =
    List.iter
      (fun line ->
        match Json.of_string line with
        | Ok j -> ignore (Protocol.event_of_json j)
        | Error e -> failwith e)
      lines
  in
  let stages =
    [
      ("sweep.keyed.ms", fun () -> ignore (Sweep.keyed points));
      ("protocol.encode.ms", fun () -> ignore (encode ()));
      ("protocol.decode.ms", decode);
    ]
  in
  (* One round of the read path without and with the per-layer timers;
     the layer figures themselves are medians over repeated rounds. *)
  let untraced = snd (time (fun () -> List.iter (fun (_, f) -> f ()) stages)) in
  let traced = snd (time (fun () -> List.iter (fun (n, f) -> span_ms n f) stages)) in
  set_layer "overhead.untraced_s" untraced;
  set_layer "overhead.traced_s" traced;
  List.iter (fun (n, f) -> set_layer n (timed_ms ~reps:15 f)) stages;
  set_layer "serve.stream_self.ms"
    (p50_ms -. layer "sweep.keyed.ms" -. layer "protocol.encode.ms" -. layer "protocol.decode.ms");
  set_layer "store.lookup.us" (timed_ms ~reps:5 (lookups served) *. 1000. /. n);
  let publish k =
    let store = Store.open_ (fresh_dir (Filename.concat dir (Printf.sprintf "replay%d" k))) in
    let ms =
      1000.
      *. snd
           (time (fun () ->
                List.iter
                  (fun (p, key, r) -> Store.put ~meta:(Sweep.meta_of_point p) store ~key r)
                  results))
    in
    (store, ms)
  in
  let puts = List.init 3 publish in
  set_layer "store.put.ms" (median (List.map snd puts));
  ignore (Store.compact (fst (List.hd puts)));
  let packed = Store.open_ (Store.root (fst (List.hd puts))) in
  check ((Store.stats packed).packed_entries = List.length results) "compaction left loose entries";
  set_layer "store.lookup_packed.us" (timed_ms ~reps:5 (lookups packed) *. 1000. /. n)

(* -- the workload ------------------------------------------------------------- *)

let run ~seed ~seconds ~quick ~traced =
  let st = rng seed in
  let spec = spec_text st in
  let root = fresh_dir (Filename.concat work_root "serve-warm") in
  (match Axes.of_string spec with
  | Ok t -> check (Axes.enumerate t = Axes.enumerate Axes.table7) "%S is not the table7 grid" spec
  | Error e -> check false "%S: %s" spec e);
  let failed = ref 0 in
  (* Set up several times; keep the last server for the timed phase. *)
  let setups = if quick || traced then 1 else 3 in
  let setup_times = ref [] in
  let rec set_up k =
    let dir = fresh_dir (Filename.concat root (Printf.sprintf "setup%d" k)) in
    let server, dt =
      time (fun () ->
          let s = start ~dir in
          let cold = query s.client ~spec in
          failed := !failed + failed_points ~what:"cold" cold;
          s)
    in
    setup_times := dt :: !setup_times;
    if k + 1 < setups then begin
      stop server;
      set_up (k + 1)
    end
    else server
  in
  let server = set_up 0 in
  let min_queries = if quick then 10 else 100 in
  let latencies = ref [] and queries = ref 0 in
  let last = ref [] in
  let t0 = now () in
  while !queries < min_queries || ((not quick) && now () -. t0 < seconds) do
    incr queries;
    let ((points, _, s) as q), dt = time (fun () -> query server.client ~spec) in
    failed := !failed + failed_points ~what:"warm" q;
    check (s.computed = 0 && s.store_hits = expected) "a warm query computed %d points" s.computed;
    latencies := (1000. *. dt) :: !latencies;
    last := points
  done;
  let timed_s = now () -. t0 and queries = !queries in
  let peak = peak_rss_mb ~pid:server.pid () in
  (match Client.stats server.client with
  | Ok j ->
      let count k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int) in
      set_layer "serve.cache_hits" (float_of_int (count "cache_hits"));
      set_layer "serve.cache_misses" (float_of_int (count "cache_misses"))
  | Error e -> check false "/stats: %s" e);
  stop server;
  let keyed = Sweep.keyed (Axes.enumerate Axes.table7) in
  let p50 = median !latencies and p90 = percentile 90. !latencies in
  let metrics =
    if traced then begin
      ignore (span "model.rank.s" (fun () -> Axes.rank (List.map fst keyed)));
      set_layer "model.calibration_runs" (float_of_int (Mfu_model.calibration_runs ()));
      replay ~served_dir:server.store_dir ~dir:root keyed ~p50_ms:p50;
      layer_metrics ()
    end
    else begin
      report "warm_queries" (float_of_int queries) "count";
      report "query_p50_ms" p50 "ms";
      report "query_p90_ms" p90 "ms";
      [
        ("setup_s", median !setup_times, "s");
        ("points_per_s", float_of_int (queries * expected) /. timed_s, "points/s");
        ("peak_mem_mb", peak, "MB");
      ]
    end
  in
  check_table7 keyed !last;
  (queries * expected, !failed, metrics)
