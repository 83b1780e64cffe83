(* Plumbing shared by the three workloads: clocks, order statistics,
   peak memory, child processes, the per-layer registry and the result
   line the benchmark ends with. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Percentile by linear interpolation between closest ranks. *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  let r = p /. 100. *. float_of_int (n - 1) in
  let i = int_of_float r in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50. xs
let minimum xs = List.fold_left Float.min infinity xs

(* The seed only permutes the order in which a workload issues its
   operations; the set of operations, and so the work, is the same for
   every seed. *)
let rng seed = Random.State.make [| seed |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let mib = 1048576.
let allocated_mb () = Gc.allocated_bytes () /. mib

(* Peak resident set (VmHWM) of a process, in MB (2^20 bytes). *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith (path ^ ": no VmHWM line")
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* -- scratch directories ---------------------------------------------------- *)

(* Everything a run writes lives under this directory of the checkout. *)
let work_root = ".perfbench-work"

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec ensure_dir p =
  if not (Sys.file_exists p) then begin
    ensure_dir (Filename.dirname p);
    Unix.mkdir p 0o755
  end

let fresh_dir path =
  remove_tree path;
  ensure_dir path;
  path

(* -- child processes ---------------------------------------------------------- *)

let live_children = ref []

let rec wait_child pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid
  | _, status ->
      live_children := List.filter (( <> ) pid) !live_children;
      status

(* A run that dies on an exception must not leave a server behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait_child pid))
        !live_children)

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
      stderr
  in
  live_children := pid :: !live_children;
  pid

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

(* Run a child to its end and return its standard output. *)
let run_child prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:w prog args in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  if not (exited_ok (wait_child pid)) then
    failwith (Printf.sprintf "%s %s failed" prog (String.concat " " args));
  out

(* -- the per-layer registry --------------------------------------------------- *)

(* Every per-layer metric, in the order BENCHMARK.json lists them. A
   traced run reports all of them; a layer its workload does not reach
   reads 0. *)
let layers =
  [
    ("codegen.s", "s");
    ("execute.s", "s");
    ("execute.alloc_mb", "MB");
    ("trace.instructions", "count");
    ("trace_cache.mb", "MB");
    ("pack.s", "s");
    ("period.s", "s");
    ("digest.s", "s");
    ("digest.alloc_mb", "MB");
    ("experiments.table1.s", "s");
    ("experiments.table2.s", "s");
    ("experiments.table3.s", "s");
    ("experiments.table4.s", "s");
    ("experiments.table5.s", "s");
    ("experiments.table6.s", "s");
    ("experiments.table7.s", "s");
    ("experiments.table8.s", "s");
    ("experiments.alloc_mb", "MB");
    ("sim.s", "s");
    ("sim.cycles", "count");
    ("sim.instructions", "count");
    ("steady.telescoped", "count");
    ("steady.fallback", "count");
    ("steady.aperiodic", "count");
    ("render.s", "s");
    ("model.rank.s", "s");
    ("model.calibration_runs", "count");
    ("store.put.ms", "ms");
    ("store.lookup.us", "us");
    ("store.lookup_packed.us", "us");
    ("sweep.keyed.ms", "ms");
    ("protocol.encode.ms", "ms");
    ("protocol.decode.ms", "ms");
    ("serve.cache_hits", "count");
    ("serve.cache_misses", "count");
    ("serve.stream_self.ms", "ms");
    ("overhead.untraced_s", "s");
    ("overhead.traced_s", "s");
  ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64

let layer name =
  if not (List.mem_assoc name layers) then invalid_arg ("unknown layer " ^ name);
  Option.value ~default:0. (Hashtbl.find_opt layer_values name)

let set_layer name v =
  ignore (layer name);
  Hashtbl.replace layer_values name v

let add_layer name v = set_layer name (layer name +. v)

(* Time a call into a layer, adding its seconds to [name]. *)
let span name f =
  let r, dt = time f in
  add_layer name dt;
  r

let span_ms name f =
  let r, dt = time f in
  add_layer name (dt *. 1000.);
  r

(* As [span], also charging the bytes the call allocated to [alloc]. *)
let alloc_span name alloc f =
  let a0 = allocated_mb () in
  let r = span name f in
  add_layer alloc (allocated_mb () -. a0);
  r

let layers_json () =
  Mfu_util.Json.Obj
    (List.map (fun (n, _) -> (n, Mfu_util.Json.Float (layer n))) layers)

(* Merge layer values a child process reported as [layers_json]. *)
let merge_layers json =
  List.iter
    (fun (n, _) ->
      match Option.bind (Mfu_util.Json.member n json) Mfu_util.Json.to_float with
      | Some v -> add_layer n v
      | None -> ())
    layers

(* -- checks and the result line ---------------------------------------------- *)

let failures = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        prerr_endline ("CHECK FAILED: " ^ msg);
        failures := msg :: !failures
      end)
    fmt

(* Report lines for people; programs read only the last line. *)
let report name value unit_ = Printf.printf "%-24s %14.6f %s\n%!" name value unit_

let print_result ~attempted ~failed metrics =
  let number v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric"
  in
  let fields =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failures = []) attempted failed (String.concat ", " fields)

let layer_metrics () = List.map (fun (n, u) -> (n, layer n, u)) layers

(* A traced run also leaves its per-layer figures in one JSON file,
   keyed by workload, so the three traced runs read side by side. *)
let write_trace_file ~workload =
  let path = Filename.concat work_root "trace.json" in
  let others =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error _ -> []
    | text -> (
        match Mfu_util.Json.of_string text with
        | Ok (Mfu_util.Json.Obj fields) ->
            List.filter (fun (k, _) -> k <> workload) fields
        | _ -> [])
  in
  let doc = Mfu_util.Json.Obj (others @ [ (workload, layers_json ()) ]) in
  ensure_dir work_root;
  Out_channel.with_open_text path (fun oc -> Mfu_util.Json.to_channel ~indent:2 oc doc)
