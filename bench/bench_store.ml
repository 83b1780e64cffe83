(* Result-store read-path benchmark: warm full-store reads, loose
   layout vs packed segments.

   A loose store pays open(2) + read(2) + close(2) + JSON parse + MD5
   per lookup; a packed store decodes each segment record once at
   [Store.open_] and serves every subsequent lookup from memory. This
   benchmark makes that gap a number — points read per second over the
   whole store, best of [rounds] — and gates it, so a change that
   quietly sends packed reads back to the filesystem fails CI.

   The store is synthetic (sequential keys, small distinct results) so
   the benchmark measures the store machinery, not the simulator.

   Usage:
     bench_store.exe [--points N] [--json FILE] [--check]
                     [--min-speedup X] [--min-time SECONDS]

   --points N       store size (default 2000)
   --json FILE      write the results as JSON (schema mfu-bench-store/v1)
   --check          exit non-zero if packed/loose speedup < the floor
   --min-speedup X  the floor used by --check (default 10)
   --min-time S     minimum measured wall-clock per timing (default 0.3) *)

module Store = Mfu_explore.Store
module Sim_types = Mfu_sim.Sim_types
module Json = Mfu_util.Json

let key i = Printf.sprintf "mfu-point/v1 bench-key-%06d" i

let result i =
  { Sim_types.cycles = 1_000 + i; instructions = 100 + (i mod 97) }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rounds = 3

(* Repeat full-store passes until [min_time] seconds have been measured;
   report points read per second. The best of [rounds] is kept: outside
   interference only ever slows a round down. *)
let measure_reads ~min_time store keys =
  let n = Array.length keys in
  let pass () =
    Array.iteri
      (fun i k ->
        match Store.find store ~key:k with
        | Some r when r = result i -> ()
        | Some _ -> failwith (Printf.sprintf "wrong result for %s" k)
        | None -> failwith (Printf.sprintf "missing entry %s" k))
      keys
  in
  pass () (* warm the page cache / fault the index in, untimed *);
  let rec timed iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      pass ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time then float_of_int (iters * n) /. dt
    else timed (max (iters * 2) (iters + 1))
  in
  let best = ref 0.0 in
  for _ = 1 to rounds do
    let pps = timed 1 in
    if pps > !best then best := pps
  done;
  !best

type report = {
  points : int;
  put_pps : float;  (** loose publications per second *)
  loose_pps : float;  (** warm full-store reads/s, loose layout *)
  packed_pps : float;  (** warm full-store reads/s, packed layout *)
  open_loose_secs : float;  (** [Store.open_] on the loose layout *)
  open_packed_secs : float;  (** [Store.open_] incl. segment decode *)
  compact_secs : float;
  pack_bytes : int;
}

let speedup r = r.packed_pps /. r.loose_pps

let run ~points ~min_time =
  let dir = Filename.temp_file "mfu_bench_store" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let keys = Array.init points key in
      let store = Store.open_ dir in
      let t0 = Unix.gettimeofday () in
      Array.iteri (fun i k -> Store.put store ~key:k (result i)) keys;
      let put_secs = Unix.gettimeofday () -. t0 in
      (* loose side: a fresh handle, so the index holds names only and
         every read goes to the filesystem, as in a resumed sweep *)
      let t0 = Unix.gettimeofday () in
      let loose_store = Store.open_ dir in
      let open_loose_secs = Unix.gettimeofday () -. t0 in
      let loose_pps = measure_reads ~min_time loose_store keys in
      let t0 = Unix.gettimeofday () in
      let c = Store.compact store in
      let compact_secs = Unix.gettimeofday () -. t0 in
      if c.Store.folded <> points then
        failwith
          (Printf.sprintf "compaction folded %d of %d points" c.Store.folded
             points);
      (* packed side: again a fresh handle; open pays the one-time
         decode, lookups are memory reads *)
      let t0 = Unix.gettimeofday () in
      let packed_store = Store.open_ dir in
      let open_packed_secs = Unix.gettimeofday () -. t0 in
      let packed_pps = measure_reads ~min_time packed_store keys in
      {
        points;
        put_pps = float_of_int points /. put_secs;
        loose_pps;
        packed_pps;
        open_loose_secs;
        open_packed_secs;
        compact_secs;
        pack_bytes = c.Store.pack_bytes;
      })

let print_report r =
  Printf.printf "store: %d points, pack %d bytes (compacted in %.3fs)\n"
    r.points r.pack_bytes r.compact_secs;
  Printf.printf "%-22s %14s %12s\n" "phase" "points/sec" "open secs";
  Printf.printf "%-22s %14.3e %12s\n" "publish (loose put)" r.put_pps "";
  Printf.printf "%-22s %14.3e %12.4f\n" "warm read, loose" r.loose_pps
    r.open_loose_secs;
  Printf.printf "%-22s %14.3e %12.4f\n" "warm read, packed" r.packed_pps
    r.open_packed_secs;
  Printf.printf "packed/loose speedup: %.1fx\n" (speedup r)

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "mfu-bench-store/v1");
      ("points", Json.Int r.points);
      ("put_points_per_sec", Json.Float r.put_pps);
      ("loose_points_per_sec", Json.Float r.loose_pps);
      ("packed_points_per_sec", Json.Float r.packed_pps);
      ("open_loose_secs", Json.Float r.open_loose_secs);
      ("open_packed_secs", Json.Float r.open_packed_secs);
      ("compact_secs", Json.Float r.compact_secs);
      ("pack_bytes", Json.Int r.pack_bytes);
      ("speedup", Json.Float (speedup r));
    ]

let usage =
  "Usage: bench_store.exe [--points N] [--json FILE] [--check]\n\
  \                       [--min-speedup X] [--min-time SECONDS]"

(* A bad command line is a usage error: one line on stderr, exit 2. *)
let usage_error msg =
  Printf.eprintf "bench_store.exe: %s (try --help)\n" msg;
  exit 2

let number_arg of_string flag s =
  match of_string s with
  | Some x -> x
  | None -> usage_error (Printf.sprintf "%s: %S is not a number" flag s)

let () =
  let points = ref 2000 in
  let json_file = ref None in
  let check = ref false in
  let min_speedup = ref 10.0 in
  let min_time = ref 0.3 in
  let rec parse = function
    | ("-h" | "--help") :: _ ->
        print_endline usage;
        exit 0
    | "--points" :: n :: rest ->
        points := number_arg int_of_string_opt "--points" n;
        parse rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--check" :: rest ->
        check := true;
        parse rest
    | "--min-speedup" :: x :: rest ->
        min_speedup := number_arg float_of_string_opt "--min-speedup" x;
        parse rest
    | "--min-time" :: s :: rest ->
        min_time := number_arg float_of_string_opt "--min-time" s;
        parse rest
    | [] -> ()
    | [ ("--points" | "--json" | "--min-speedup" | "--min-time") as f ] ->
        usage_error (f ^ " needs a value")
    | arg :: _ -> usage_error ("unknown argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let r = run ~points:!points ~min_time:!min_time in
  print_report r;
  Option.iter
    (fun file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Json.to_channel oc (to_json r));
      Printf.eprintf "[bench] wrote %s\n%!" file)
    !json_file;
  if !check then
    if speedup r < !min_speedup then begin
      Printf.eprintf
        "check FAILED: packed/loose speedup %.1fx below the %.0fx floor\n"
        (speedup r) !min_speedup;
      exit 1
    end
    else
      Printf.printf "check: packed/loose speedup %.1fx >= %.0fx floor\n"
        (speedup r) !min_speedup
