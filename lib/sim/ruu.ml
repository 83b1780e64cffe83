module Config = Mfu_isa.Config
module Fu = Mfu_isa.Fu
module Reg = Mfu_isa.Reg
module Trace = Mfu_exec.Trace
module Packed = Mfu_exec.Packed
module Metrics = Sim_types.Metrics
module Int_table = Mfu_util.Int_table

type branch_handling = Stall | Oracle | Static_taken | Bimodal of int

let branch_handling_to_string = function
  | Stall -> "stall"
  | Oracle -> "oracle"
  | Static_taken -> "static-taken"
  | Bimodal n -> Printf.sprintf "bimodal(%d)" n

(* -- reference path ---------------------------------------------------------
   The original entry-record implementation, kept verbatim as the
   differential oracle for the packed fast path below. *)

type entry = {
  slot : int;
  issue_cycle : int;
  fu : Fu.kind;
  dest : Reg.t option;
  producers : entry list;  (* in-flight instructions this one waits for *)
  needs_result_bus : bool;
  mutable dispatched : bool;
  mutable completion : int; (* result available in the RUU; max_int until known *)
}

type state = {
  config : Config.t;
  issue_units : int;
  ruu_size : int;
  metrics : Metrics.t option;
  bus : Sim_types.bus_model;
  entries : entry option array; (* ring buffer, indexed by slot *)
  mutable head : int;
  mutable count : int;
  latest_writer : entry option array; (* per architectural register *)
  mem_writer : (int, entry) Hashtbl.t; (* last in-flight store per address *)
  result_bus : (int, int) Hashtbl.t; (* key cycle -> per-cycle use bitmap/count *)
  fu_last_used : int array;
  branches : branch_handling;
  counters : int array; (* bimodal 2-bit counters (unused otherwise) *)
  mutable stall_until : int;
  mutable next : int; (* next trace index to issue *)
  mutable finish : int;
}

let bank st slot =
  match st.bus with
  | Sim_types.One_bus -> 0
  | Sim_types.N_bus -> slot mod st.issue_units
  | Sim_types.X_bar -> 0 (* unused: X-bar counts total uses *)

(* FU->RUU result-bus availability at [cycle]. For banked models the bitmap
   has one bit per bank; for the crossbar we count total uses. *)
let result_bus_free st ~cycle ~bank:b =
  let cur = Option.value ~default:0 (Hashtbl.find_opt st.result_bus cycle) in
  match st.bus with
  | Sim_types.One_bus | Sim_types.N_bus -> cur land (1 lsl b) = 0
  | Sim_types.X_bar -> cur < st.issue_units

let reserve_result_bus st ~cycle ~bank:b =
  let cur = Option.value ~default:0 (Hashtbl.find_opt st.result_bus cycle) in
  let v =
    match st.bus with
    | Sim_types.One_bus | Sim_types.N_bus -> cur lor (1 lsl b)
    | Sim_types.X_bar -> cur + 1
  in
  Hashtbl.replace st.result_bus cycle v

let ruu_full st = st.count >= st.ruu_size

let alloc_slot st =
  let slot = (st.head + st.count) mod st.ruu_size in
  st.count <- st.count + 1;
  slot

let operand_ready_cycle (e : entry) =
  List.fold_left (fun acc p -> max acc p.completion) 0 e.producers

(* -- issue stage ---------------------------------------------------------- *)

let producers_of st (e : Trace.entry) =
  let reg_producers =
    List.filter_map (fun r -> st.latest_writer.(Reg.index r)) e.srcs
  in
  let mem_producers =
    match e.kind with
    | Trace.Load a | Trace.Store a -> (
        match Hashtbl.find_opt st.mem_writer a with
        | Some p -> [ p ]
        | None -> [])
    | _ -> []
  in
  reg_producers @ mem_producers

(* the branch's condition register (A0 or S0) must have been produced *)
let branch_operands_ready st (e : Trace.entry) ~t =
  List.for_all
    (fun r ->
      match st.latest_writer.(Reg.index r) with
      | None -> true
      | Some p -> p.completion <= t)
    e.Trace.srcs

(* Predict a branch and update predictor state; returns whether the
   prediction matched the trace outcome. *)
let predict st (e : Trace.entry) =
  let taken = match e.Trace.kind with Trace.Taken_branch -> true | _ -> false in
  match st.branches with
  | Stall -> false
  | Oracle -> true
  | Static_taken -> taken
  | Bimodal n ->
      let slot = e.Trace.static_index mod n in
      let counter = st.counters.(slot) in
      let predicted_taken = counter >= 2 in
      st.counters.(slot) <-
        (if taken then min 3 (counter + 1) else max 0 (counter - 1));
      predicted_taken = taken

let issue_pass st ~t (trace : Trace.t) =
  let n = Array.length trace in
  let issued = ref 0 in
  let blocked = ref false in
  while
    (not !blocked) && !issued < st.issue_units && t >= st.stall_until
    && st.next < n
  do
    let e = trace.(st.next) in
    if Trace.is_branch e then begin
      let correctly_predicted = st.branches <> Stall && predict st e in
      if correctly_predicted then begin
        (* speculation: issue resumes one cycle after the branch; the
           branch itself still resolves on the branch unit *)
        st.stall_until <- t + 1;
        st.finish <- max st.finish (t + Config.branch_time st.config);
        st.next <- st.next + 1;
        incr issued;
        blocked := true
      end
      else if branch_operands_ready st e ~t then begin
        (* stall (or misprediction recovery): the issue stage is blocked
           for the branch execution time *)
        st.stall_until <- t + Config.branch_time st.config;
        st.finish <- max st.finish (t + Config.branch_time st.config);
        st.next <- st.next + 1;
        incr issued;
        blocked := true
      end
      else blocked := true
    end
    else if ruu_full st then blocked := true
    else begin
      let slot = alloc_slot st in
      let entry =
        {
          slot;
          issue_cycle = t;
          fu = e.fu;
          dest = e.dest;
          producers = producers_of st e;
          needs_result_bus = Trace.produces_result e;
          dispatched = false;
          completion = max_int;
        }
      in
      st.entries.(slot) <- Some entry;
      (match e.dest with
      | Some d -> st.latest_writer.(Reg.index d) <- Some entry
      | None -> ());
      (match e.kind with
      | Trace.Store a -> Hashtbl.replace st.mem_writer a entry
      | _ -> ());
      st.next <- st.next + 1;
      incr issued
    end
  done;
  !issued

(* Why the issue stage made no progress at cycle [t]: with the trace
   exhausted the machine is draining the RUU; otherwise a branch either
   blocks the stage or waits for its condition register, or the RUU is
   full. Only called on zero-issue cycles. *)
let diagnose st ~t (trace : Trace.t) =
  if st.next >= Array.length trace then Metrics.Drain
  else if t < st.stall_until then Metrics.Branch
  else begin
    let e = trace.(st.next) in
    if Trace.is_branch e then Metrics.Raw
      (* the branch's condition register is not produced yet *)
    else Metrics.Buffer_refill (* RUU full: the only non-branch blocker *)
  end

(* -- dispatch stage -------------------------------------------------------- *)

let dispatch_pass st ~t =
  (* Per-cycle dispatch-bus budget. *)
  let total_budget =
    match st.bus with Sim_types.One_bus -> 1 | _ -> st.issue_units
  in
  let bank_used = ref 0 in
  let dispatched_total = ref 0 in
  let i = ref 0 in
  while !dispatched_total < total_budget && !i < st.count do
    let slot = (st.head + !i) mod st.ruu_size in
    (match st.entries.(slot) with
    | Some entry when (not entry.dispatched) && entry.issue_cycle < t ->
        let b = bank st entry.slot in
        let bank_ok =
          match st.bus with
          | Sim_types.One_bus | Sim_types.N_bus -> !bank_used land (1 lsl b) = 0
          | Sim_types.X_bar -> true
        in
        let ready = operand_ready_cycle entry <= t in
        if ready then begin
          let fu_ok =
            (not (Fu.is_shared_unit entry.fu))
            || st.fu_last_used.(Fu.index entry.fu) <> t
          in
          let latency = Config.latency st.config entry.fu in
          let completion = t + latency in
          let bus_ok =
            (not entry.needs_result_bus)
            || result_bus_free st ~cycle:completion ~bank:b
          in
          (* A ready entry with a free unit the interconnect turned
             away (bank claimed this cycle, or no write-back slot at
             completion): the bus shaped this run. Recorded so a
             conflict-free N-bus run can certify its crossbar twin
             byte-identical (see Mfu_explore.Sweep). An entry whose
             unit is busy is refused on any interconnect, so it never
             counts. *)
          (if fu_ok && not (bank_ok && bus_ok) then
             match st.metrics with
             | Some m -> Metrics.record_bus_reject m
             | None -> ());
          if bank_ok && fu_ok && bus_ok then begin
            entry.dispatched <- true;
            entry.completion <- completion;
            (match st.metrics with
            | Some m when Fu.is_shared_unit entry.fu ->
                Metrics.record_fu_busy m entry.fu 1
            | _ -> ());
            st.fu_last_used.(Fu.index entry.fu) <- t;
            if entry.needs_result_bus then
              reserve_result_bus st ~cycle:completion ~bank:b;
            bank_used := !bank_used lor (1 lsl b);
            incr dispatched_total;
            st.finish <- max st.finish completion
          end
        end
    | _ -> ());
    incr i
  done

(* -- commit stage ----------------------------------------------------------- *)

let commit_pass st ~t =
  let budget =
    match st.bus with Sim_types.One_bus -> 1 | _ -> st.issue_units
  in
  let committed = ref 0 in
  let continue_ = ref true in
  while !continue_ && !committed < budget && st.count > 0 do
    match st.entries.(st.head) with
    | Some entry when entry.dispatched && entry.completion <= t ->
        (* retire: free the slot, clear writer maps that still point here *)
        (match entry.dest with
        | Some d ->
            (match st.latest_writer.(Reg.index d) with
            | Some w when w == entry -> st.latest_writer.(Reg.index d) <- None
            | _ -> ())
        | None -> ());
        st.entries.(st.head) <- None;
        st.head <- (st.head + 1) mod st.ruu_size;
        st.count <- st.count - 1;
        incr committed
    | _ -> continue_ := false
  done

let simulate_reference ?metrics ~branches ~config ~issue_units ~ruu_size ~bus
    (trace : Trace.t) =
  let st =
    {
      config;
      issue_units;
      ruu_size;
      metrics;
      bus;
      entries = Array.make ruu_size None;
      head = 0;
      count = 0;
      latest_writer = Array.make Reg.count None;
      mem_writer = Hashtbl.create 256;
      result_bus = Hashtbl.create 1024;
      fu_last_used = Array.make Fu.count (-1);
      branches;
      counters = (match branches with Bimodal n -> Array.make n 0 | _ -> [||]);
      stall_until = 0;
      next = 0;
      finish = 0;
    }
  in
  let n = Array.length trace in
  let t = ref 0 in
  let guard = ref (400 * (n + 100)) in
  while not (st.next >= n && st.count = 0) do
    (match metrics with
    | Some m -> Metrics.record_occupancy m st.count
    | None -> ());
    commit_pass st ~t:!t;
    dispatch_pass st ~t:!t;
    let issued = issue_pass st ~t:!t trace in
    (match metrics with
    | Some m ->
        if issued > 0 then begin
          Metrics.record_issue ~width:issued m 1;
          Metrics.record_instructions m issued
        end
        else Metrics.record_stall m (diagnose st ~t:!t trace) 1
    | None -> ());
    incr t;
    decr guard;
    if !guard <= 0 then failwith "Ruu.simulate: no progress"
  done;
  let cycles = max st.finish !t in
  (match metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - !t)
  | None -> ());
  { Sim_types.cycles; instructions = n }

(* -- packed fast path --------------------------------------------------------
   The same machine over the struct-of-arrays {!Mfu_exec.Packed} form, with
   the boxed RUU entry records flattened into per-slot arrays.

   Producer references survive slot recycling through generations: slot
   allocation number [uid] is stored per slot, and a producer reference is
   encoded as [uid * ruu_size + slot]. A reference whose generation no
   longer matches denotes a committed producer; treating its completion as
   0 is exact, because commit requires [completion <= commit cycle <=
   consumer issue cycle < t] for every later readiness test, which compares
   [<= t]. A still-matching generation reads the live (or
   committed-in-place) completion directly — also what the reference's
   retained record pointer sees. [latest_writer] needs no generations: it
   always points at a live entry (issue sets it, commit clears it), so a
   plain slot number is the identity.

   The per-cycle result-bus Hashtbl becomes a [max_latency + 2] ring of
   (cycle tag, bitmap/count) pairs: a reservation for completion cycle [c]
   is only probed while [t < c] (probes happen at [t + latency], latencies
   >= 1), so live cycles span less than the ring and never collide; a slot
   whose tag mismatches is simply an expired cycle and reads as empty. The
   in-flight store map becomes an open-addressing table from address to
   encoded producer reference.

   When [metrics] is [None], a cycle with no commit, no dispatch and no
   issue fast-forwards to the earliest next event: the head completion (if
   dispatched), the operand-ready cycles of undispatched entries, a
   waiting branch's condition-register completion, and the branch-stall
   expiry. In such a cycle every [fu_last_used] is in the past and no
   dispatch bank is taken, so the only same-cycle blocker is a result-bus
   slot — which shifts with [t] and therefore pins the wake to [t + 1]
   whenever it was the binding constraint. Cycles strictly before the
   minimum candidate provably repeat the zero-activity cycle. Metrics runs
   keep the per-cycle walk, making stall attribution trivially
   identical. *)

module Fast = struct
  type state = {
    p : Packed.t;
    lat : int array;
    branch_time : int;
    issue_units : int;
    ruu_size : int;
    metrics : Metrics.t option;
    bus : Sim_types.bus_model;
    (* per-slot entry fields; a slot is live iff it lies in
       [head, head + count) of the ring *)
    s_uid : int array;
    s_issue_cycle : int array;
    s_fu : int array;
    s_dest : int array;
    s_needs_bus : bool array;
    s_dispatched : bool array;
    s_completion : int array;
    (* memoized operand-ready cycle, [max_int] until knowable: a value
       below [max_int] is final, because the maximal contributor — some
       producer's completion [c] — cannot be committed (and its slot
       recycled) before cycle [c] itself, so the max never moves *)
    s_ready : int array;
    (* partial operand-ready: the running max over the producers resolved
       so far; [s_ready] becomes this value once the last producer
       resolves *)
    s_rpart : int array;
    s_bank : int array; (* [bank st slot], fixed per slot and bus model *)
    (* count of still-unresolved producers; resolved ones are swap-removed
       from the slot's segment of the producer arrays and folded into
       [s_rpart], so repeat scans only probe the stragglers *)
    s_nprod : int array;
    (* producer references, ruu_size * maxprod each; slot and uid are kept
       in separate arrays so the per-cycle operand scans never pay the
       division a single [uid * ruu_size + slot] encoding would need *)
    s_prod_slot : int array;
    s_prod_uid : int array;
    maxprod : int;
    mutable head : int;
    mutable count : int;
    mutable uid_next : int;
    (* the undispatched entries as a doubly-linked list threaded through
       the slots in window (= issue) order: the dispatch scan walks only
       these, never the dispatched entries parked in the window awaiting
       in-order commit (commits never touch the list — only dispatched
       entries commit) *)
    mutable ud_head : int; (* first undispatched slot, or -1 *)
    mutable ud_tail : int;
    ud_next : int array;
    ud_prev : int array;
    (* summary of the last completed dispatch scan: the earliest cycle any
       undispatched entry could dispatch, valid while the undispatched set
       is unchanged (readies are final, commits only remove dispatched
       entries). 0 = unknown, the scan must run; [max_int] = nothing
       undispatched. While [scan_min > t] the whole scan is provably a
       no-op and is skipped. Invalidated by any issue. Entries still
       waiting on undispatched producers contribute nothing: a producer
       cannot dispatch before [scan_min] (induction over window order),
       so the dependent cannot be ready before [scan_min] + 1. *)
    mutable scan_min : int;
    latest_writer : int array; (* per register: live slot or -1 *)
    mem_writer : Int_table.t; (* address -> encoded producer reference *)
    rb_tag : int array; (* result-bus ring: cycle tag per slot *)
    rb_val : int array; (* bitmap (banked) or use count (crossbar) *)
    fu_last_used : int array;
    branches : branch_handling;
    counters : int array;
    mutable stall_until : int;
    mutable next : int;
    mutable finish : int;
    mutable wake : int; (* earliest next interesting cycle, or max_int *)
  }

  let lower_wake st v = if v < st.wake then st.wake <- v

  let bank st slot =
    match st.bus with
    | Sim_types.One_bus -> 0
    | Sim_types.N_bus -> slot mod st.issue_units
    | Sim_types.X_bar -> 0

  (* the ring length is a power of two, so indexing is a mask *)
  let rb_get st cycle =
    let i = cycle land (Array.length st.rb_tag - 1) in
    if st.rb_tag.(i) = cycle then st.rb_val.(i) else 0

  let result_bus_free st ~cycle ~bank:b =
    let cur = rb_get st cycle in
    match st.bus with
    | Sim_types.One_bus | Sim_types.N_bus -> cur land (1 lsl b) = 0
    | Sim_types.X_bar -> cur < st.issue_units

  let reserve_result_bus st ~cycle ~bank:b =
    let cur = rb_get st cycle in
    let v =
      match st.bus with
      | Sim_types.One_bus | Sim_types.N_bus -> cur lor (1 lsl b)
      | Sim_types.X_bar -> cur + 1
    in
    let i = cycle land (Array.length st.rb_tag - 1) in
    st.rb_tag.(i) <- cycle;
    st.rb_val.(i) <- v

  let producer_completion st ~slot ~uid =
    if st.s_uid.(slot) = uid then st.s_completion.(slot) else 0

  (* The scan loops of this module are module-level recursive functions
     rather than local [ref]-and-[while] loops or local closures: both of
     those heap-allocate per call, and the no-metrics simulation loop must
     not allocate per cycle. *)

  (* Probe the slot's unresolved producers: each one now dispatched (or
     already committed) is folded into the partial max and swap-removed.
     Returns the final ready cycle once every producer has resolved,
     [max_int] while some are still undispatched. A producer's completion
     is final once set, so the fold computes exactly the reference's
     max-over-producers. *)
  let rec resolve_prods st ~islot ~base ~k ~np acc =
    if k >= np then begin
      st.s_nprod.(islot) <- np;
      st.s_rpart.(islot) <- acc;
      if np = 0 then begin
        st.s_ready.(islot) <- acc;
        acc
      end
      else max_int
    end
    else
      let c =
        producer_completion st
          ~slot:st.s_prod_slot.(base + k)
          ~uid:st.s_prod_uid.(base + k)
      in
      if c = max_int then resolve_prods st ~islot ~base ~k:(k + 1) ~np acc
      else begin
        let np = np - 1 in
        st.s_prod_slot.(base + k) <- st.s_prod_slot.(base + np);
        st.s_prod_uid.(base + k) <- st.s_prod_uid.(base + np);
        resolve_prods st ~islot ~base ~k ~np (if c > acc then c else acc)
      end

  let operand_ready_cycle st slot =
    let r = st.s_ready.(slot) in
    if r < max_int then r
    else
      resolve_prods st ~islot:slot ~base:(slot * st.maxprod) ~k:0
        ~np:st.s_nprod.(slot) st.s_rpart.(slot)

  (* -- issue stage -------------------------------------------------------- *)

  (* Scans every source (no short circuit): each blocked producer is a wake
     candidate. *)
  let rec branch_ready_from st ~t ~s ~stop acc =
    if s >= stop then acc
    else begin
      let w = st.latest_writer.(st.p.Packed.src_idx.(s)) in
      let acc =
        if w >= 0 && st.s_completion.(w) > t then begin
          (* wake candidate: the condition register's production cycle *)
          if st.s_completion.(w) < max_int then
            lower_wake st st.s_completion.(w);
          false
        end
        else acc
      in
      branch_ready_from st ~t ~s:(s + 1) ~stop acc
    end

  let branch_operands_ready st i ~t =
    branch_ready_from st ~t ~s:st.p.Packed.src_off.(i)
      ~stop:st.p.Packed.src_off.(i + 1) true

  let predict st i =
    let taken = Packed.kind st.p i = Packed.kind_taken in
    match st.branches with
    | Stall -> false
    | Oracle -> true
    | Static_taken -> taken
    | Bimodal n ->
        let slot = st.p.Packed.static_index.(i) mod n in
        let counter = st.counters.(slot) in
        let predicted_taken = counter >= 2 in
        st.counters.(slot) <-
          (if taken then min 3 (counter + 1) else max 0 (counter - 1));
        predicted_taken = taken

  let rec fill_prods st ~base ~s ~stop np =
    if s >= stop then np
    else begin
      let w = st.latest_writer.(st.p.Packed.src_idx.(s)) in
      if w >= 0 then begin
        st.s_prod_slot.(base + np) <- w;
        st.s_prod_uid.(base + np) <- st.s_uid.(w);
        fill_prods st ~base ~s:(s + 1) ~stop (np + 1)
      end
      else fill_prods st ~base ~s:(s + 1) ~stop np
    end

  let rec issue_loop st ~t issued =
    if issued >= st.issue_units || st.next >= st.p.Packed.n then issued
    else
      let i = st.next in
      if Packed.is_branch st.p i then begin
        let correctly_predicted = st.branches <> Stall && predict st i in
        if correctly_predicted then begin
          st.stall_until <- t + 1;
          if t + st.branch_time > st.finish then
            st.finish <- t + st.branch_time;
          st.next <- st.next + 1;
          issued + 1
        end
        else if branch_operands_ready st i ~t then begin
          st.stall_until <- t + st.branch_time;
          if t + st.branch_time > st.finish then
            st.finish <- t + st.branch_time;
          st.next <- st.next + 1;
          issued + 1
        end
        else issued
      end
      else if st.count >= st.ruu_size then issued
      else begin
        let slot = st.head + st.count in
        let slot = if slot >= st.ruu_size then slot - st.ruu_size else slot in
        st.count <- st.count + 1;
        let uid = st.uid_next in
        st.uid_next <- uid + 1;
        st.s_uid.(slot) <- uid;
        st.s_issue_cycle.(slot) <- t;
        st.s_fu.(slot) <- st.p.Packed.fu.(i);
        st.s_dispatched.(slot) <- false;
        st.s_completion.(slot) <- max_int;
        st.s_bank.(slot) <- bank st slot;
        let d = st.p.Packed.dest.(i) in
        st.s_dest.(slot) <- d;
        st.s_needs_bus.(slot) <- d >= 0;
        let base = slot * st.maxprod in
        let np =
          fill_prods st ~base ~s:st.p.Packed.src_off.(i)
            ~stop:st.p.Packed.src_off.(i + 1) 0
        in
        let np =
          if Packed.is_mem st.p i then begin
            let r =
              Int_table.find st.mem_writer ~default:(-1) st.p.Packed.addr.(i)
            in
            if r >= 0 then begin
              st.s_prod_slot.(base + np) <- r mod st.ruu_size;
              st.s_prod_uid.(base + np) <- r / st.ruu_size;
              np + 1
            end
            else np
          end
          else np
        in
        st.s_nprod.(slot) <- np;
        st.s_rpart.(slot) <- 0;
        st.s_ready.(slot) <- (if np = 0 then 0 else max_int);
        if d >= 0 then st.latest_writer.(d) <- slot;
        if Packed.kind st.p i = Packed.kind_store then
          Int_table.set st.mem_writer st.p.Packed.addr.(i)
            ((uid * st.ruu_size) + slot);
        st.next <- st.next + 1;
        (* append to the undispatched list: issue order is window order *)
        st.ud_prev.(slot) <- st.ud_tail;
        st.ud_next.(slot) <- -1;
        if st.ud_tail >= 0 then st.ud_next.(st.ud_tail) <- slot
        else st.ud_head <- slot;
        st.ud_tail <- slot;
        st.scan_min <- 0;
        issue_loop st ~t (issued + 1)
      end

  let issue_pass st ~t =
    if t < st.stall_until then begin
      lower_wake st st.stall_until;
      0
    end
    else issue_loop st ~t 0

  let diagnose st ~t =
    if st.next >= st.p.Packed.n then Metrics.Drain
    else if t < st.stall_until then Metrics.Branch
    else if Packed.is_branch st.p st.next then Metrics.Raw
    else Metrics.Buffer_refill

  (* -- dispatch stage ------------------------------------------------------ *)

  let unlink st slot =
    let p = st.ud_prev.(slot) and n = st.ud_next.(slot) in
    if p >= 0 then st.ud_next.(p) <- n else st.ud_head <- n;
    if n >= 0 then st.ud_prev.(n) <- p else st.ud_tail <- p

  (* Walks the undispatched list — exactly the entries the reference scan
     can act on, in the same window order, so the bank/bus arbitration is
     unchanged. [min_blocked] accumulates the scan summary: the earliest
     cycle any visited entry could dispatch. Entries still waiting on
     undispatched producers contribute nothing — every producer sits
     earlier in this same list (issue order is program order), so the
     dependent cannot become ready until after some listed producer
     dispatches, which cannot happen before [min_blocked]; and the
     head-most entry always has every producer resolved, so the summary
     is never vacuous while the list is non-empty. A budget-limited scan
     leaves [scan_min = 0] (no conclusion), a natural end [min_blocked]. *)
  let rec dispatch_loop st ~t ~total_budget ~bank_used ~slot ~min_blocked
      dispatched =
    if dispatched >= total_budget then begin
      st.scan_min <- 0;
      dispatched
    end
    else if slot < 0 then begin
      st.scan_min <- min_blocked;
      dispatched
    end
    else begin
      let nxt = st.ud_next.(slot) in
      if st.s_issue_cycle.(slot) < t then begin
        let b = st.s_bank.(slot) in
        let bank_ok =
          match st.bus with
          | Sim_types.One_bus | Sim_types.N_bus -> bank_used land (1 lsl b) = 0
          | Sim_types.X_bar -> true
        in
        if bank_ok then begin
          let ready = operand_ready_cycle st slot in
          if ready <= t then begin
            let fu = st.s_fu.(slot) in
            let fu_ok =
              (not Packed.shared_unit.(fu)) || st.fu_last_used.(fu) <> t
            in
            let completion = t + st.lat.(fu) in
            let bus_ok =
              (not st.s_needs_bus.(slot))
              || result_bus_free st ~cycle:completion ~bank:b
            in
            (if fu_ok && not bus_ok then
               match st.metrics with
               | Some m -> Metrics.record_bus_reject m
               | None -> ());
            if fu_ok && bus_ok then begin
              st.s_dispatched.(slot) <- true;
              st.s_completion.(slot) <- completion;
              unlink st slot;
              (match st.metrics with
              | Some m when Packed.shared_unit.(fu) ->
                  Metrics.record_fu_busy m (Fu.of_index fu) 1
              | _ -> ());
              st.fu_last_used.(fu) <- t;
              if st.s_needs_bus.(slot) then
                reserve_result_bus st ~cycle:completion ~bank:b;
              if completion > st.finish then st.finish <- completion;
              dispatch_loop st ~t ~total_budget
                ~bank_used:(bank_used lor (1 lsl b))
                ~slot:nxt ~min_blocked (dispatched + 1)
            end
            else begin
              (* operand-ready but blocked: on a zero-dispatch cycle the
                 unit and bank are provably free, so the binding constraint
                 is the result bus, which shifts with [t] *)
              lower_wake st (t + 1);
              dispatch_loop st ~t ~total_budget ~bank_used ~slot:nxt
                ~min_blocked:(min min_blocked (t + 1))
                dispatched
            end
          end
          else if ready < max_int then begin
            lower_wake st ready;
            dispatch_loop st ~t ~total_budget ~bank_used ~slot:nxt
              ~min_blocked:(min min_blocked ready)
              dispatched
          end
          else
            dispatch_loop st ~t ~total_budget ~bank_used ~slot:nxt ~min_blocked
              dispatched
        end
        else begin
          (* bank taken this cycle: mirror the reference walker's
             bus-reject accounting for ready entries with a free unit *)
          (match st.metrics with
          | Some m when operand_ready_cycle st slot <= t ->
              let fu = st.s_fu.(slot) in
              if (not Packed.shared_unit.(fu)) || st.fu_last_used.(fu) <> t
              then Metrics.record_bus_reject m
          | _ -> ());
          dispatch_loop st ~t ~total_budget ~bank_used ~slot:nxt
            ~min_blocked:(min min_blocked (t + 1))
            dispatched
        end
      end
      else
        (* issued this very cycle: undispatched but not yet eligible *)
        dispatch_loop st ~t ~total_budget ~bank_used ~slot:nxt
          ~min_blocked:(min min_blocked (t + 1))
          dispatched
    end

  let dispatch_pass st ~t =
    if st.scan_min > t then begin
      (* exact skip: the undispatched set is unchanged since the scan that
         computed [scan_min] (skipped scans dispatch nothing, commits only
         remove dispatched entries, any issue resets it), and no member
         can dispatch before [scan_min] > t, so the reference scan would
         dispatch nothing; its earliest wake candidate is [scan_min] *)
      if st.scan_min < max_int then lower_wake st st.scan_min;
      0
    end
    else begin
      let total_budget =
        match st.bus with Sim_types.One_bus -> 1 | _ -> st.issue_units
      in
      dispatch_loop st ~t ~total_budget ~bank_used:0 ~slot:st.ud_head
        ~min_blocked:max_int 0
    end

  (* -- commit stage --------------------------------------------------------- *)

  let rec commit_loop st ~t ~budget committed =
    if committed >= budget || st.count = 0 then committed
    else
      let slot = st.head in
      if st.s_dispatched.(slot) && st.s_completion.(slot) <= t then begin
        let d = st.s_dest.(slot) in
        if d >= 0 && st.latest_writer.(d) = slot then st.latest_writer.(d) <- -1;
        st.head <- (if st.head + 1 >= st.ruu_size then 0 else st.head + 1);
        st.count <- st.count - 1;
        commit_loop st ~t ~budget (committed + 1)
      end
      else begin
        if st.s_dispatched.(slot) then lower_wake st st.s_completion.(slot);
        committed
      end

  let commit_pass st ~t =
    let budget =
      match st.bus with Sim_types.One_bus -> 1 | _ -> st.issue_units
    in
    commit_loop st ~t ~budget 0
end

let rec pow2_at_least n = if n <= 1 then 1 else 2 * pow2_at_least ((n + 1) / 2)

(* The cycle-stepped machine: the [Fast] state plus its clock, probe, and
   progress guard. See {!Buffer_issue.driver}. *)
type driver = {
  st : Fast.state;
  d_probe : Steady.probe option;
  d_can_skip : bool;
  d_maxlat : int;
  mutable d_t : int;
  mutable d_guard : int;
}

let make_driver ?metrics ?probe ~branches ~config ~issue_units ~ruu_size ~bus
    (p : Packed.t) =
  let maxprod = p.Packed.max_srcs + 1 in
  let st =
    {
      Fast.p;
      lat = Packed.latency_table config;
      branch_time = Config.branch_time config;
      issue_units;
      ruu_size;
      metrics;
      bus;
      s_uid = Array.make ruu_size (-1);
      s_issue_cycle = Array.make ruu_size 0;
      s_fu = Array.make ruu_size 0;
      s_dest = Array.make ruu_size (-1);
      s_needs_bus = Array.make ruu_size false;
      s_dispatched = Array.make ruu_size false;
      s_completion = Array.make ruu_size 0;
      s_ready = Array.make ruu_size max_int;
      s_rpart = Array.make ruu_size 0;
      s_bank = Array.make ruu_size 0;
      s_nprod = Array.make ruu_size 0;
      s_prod_slot = Array.make (ruu_size * maxprod) 0;
      s_prod_uid = Array.make (ruu_size * maxprod) 0;
      maxprod;
      head = 0;
      count = 0;
      uid_next = 0;
      ud_head = -1;
      ud_tail = -1;
      ud_next = Array.make ruu_size (-1);
      ud_prev = Array.make ruu_size (-1);
      scan_min = 0;
      latest_writer = Array.make Reg.count (-1);
      mem_writer = Int_table.create 256;
      (* power of two >= the live-key span (max latency + 2), so ring
         indexing is a mask *)
      rb_tag = Array.make (pow2_at_least (Packed.max_latency config + 2)) (-1);
      rb_val = Array.make (pow2_at_least (Packed.max_latency config + 2)) 0;
      fu_last_used = Array.make Fu.count (-1);
      branches;
      counters = (match branches with Bimodal n -> Array.make n 0 | _ -> [||]);
      stall_until = 0;
      next = 0;
      finish = 0;
      wake = max_int;
    }
  in
  (* the issue pass examines up to [issue_units] entries past [next] in a
     cycle; keep that many entries' periods out of the telescoped span *)
  Option.iter (fun pr -> pr.Steady.lookahead <- issue_units) probe;
  {
    st;
    d_probe = probe;
    (* The event skip must replay every cycle under [Bimodal]: a blocked
       branch re-predicts (and trains its 2-bit counter) each retried
       cycle, and can even flip to a correct prediction — and issue —
       mid-wait, so zero-activity cycles carry predictor state. The other
       policies are stateless per cycle. *)
    d_can_skip = (match branches with Bimodal _ -> false | _ -> true);
    d_maxlat = Packed.max_latency config;
    d_t = 0;
    d_guard = 400 * (p.Packed.n + 100);
  }

(* Steady-state fingerprint, normalized by [now = t] at the top of a
   cycle where exactly the entries before the boundary have issued.
   The ring head is kept absolute — dispatch banks are [slot mod
   issue_units], so only states with identical slot numbering replay
   each other. Times at or before [now] are dead (commit compares
   [<= t], readiness [<= t], same-cycle unit reuse [= t], and probed
   result-bus cycles are > [now]), so they clamp to 0. A producer
   reference normalizes to its slot plus whether its generation still
   matches: a mismatched (or committed, completion <= now) producer
   reads as an immediately-resolved 0 either way. In-flight store-map
   entries survive only while their producer is live, and are sorted
   by translated address (the open-addressing table's physical order
   must not leak). [uid_next] and the undispatched list are excluded:
   generations only matter through the match bits, and the list is
   determined by window order and the dispatched flags. *)
let driver_fingerprint d pr pos now =
  let st = d.st in
  let ruu_size = st.Fast.ruu_size in
  let fp = ref [] in
  let push v = fp := v :: !fp in
  push st.Fast.head;
  push st.Fast.count;
  push (if st.Fast.stall_until > now then st.Fast.stall_until - now else 0);
  push (if st.Fast.finish > now then st.Fast.finish - now else 0);
  push
    (if st.Fast.scan_min > now then
       if st.Fast.scan_min = max_int then -1 else st.Fast.scan_min - now
     else 0);
  for c = now + 1 to now + d.d_maxlat do
    push (Fast.rb_get st c)
  done;
  Array.iter
    (fun v -> push (if v >= now then v - now + 1 else 0))
    st.Fast.fu_last_used;
  Array.iter push st.Fast.latest_writer;
  Array.iter push st.Fast.counters;
  for k = 0 to st.Fast.count - 1 do
    let slot = (st.Fast.head + k) mod ruu_size in
    push st.Fast.s_dest.(slot);
    push st.Fast.s_fu.(slot);
    push (if st.Fast.s_dispatched.(slot) then 1 else 0);
    let c = st.Fast.s_completion.(slot) in
    push (if c = max_int then -1 else if c > now then c - now else 0);
    let r = st.Fast.s_ready.(slot) in
    push (if r = max_int then -1 else if r > now then r - now else 0);
    (* once [s_ready] is final the partial max and producers are never
       consulted again ([nprod] is 0 by then); canonicalize the stale
       partial to 0 *)
    push
      (if r = max_int && st.Fast.s_rpart.(slot) > now then
         st.Fast.s_rpart.(slot) - now
       else 0);
    let np = st.Fast.s_nprod.(slot) in
    push np;
    let base = slot * st.Fast.maxprod in
    for j = 0 to np - 1 do
      let ps = st.Fast.s_prod_slot.(base + j) in
      push ps;
      push (if st.Fast.s_uid.(ps) = st.Fast.s_prod_uid.(base + j) then 1 else 0)
    done
  done;
  let live = ref [] in
  Int_table.iter
    (fun addr r ->
      let slot = r mod ruu_size and uid = r / ruu_size in
      let off =
        let o = slot - st.Fast.head in
        if o < 0 then o + ruu_size else o
      in
      if
        off < st.Fast.count
        && st.Fast.s_uid.(slot) = uid
        && (st.Fast.s_completion.(slot) = max_int
           || st.Fast.s_completion.(slot) > now)
      then live := (addr - pr.Steady.addr_off, slot) :: !live)
    st.Fast.mem_writer;
  let live = List.sort compare !live in
  push (List.length live);
  List.iter
    (fun (a, s) ->
      push a;
      push s)
    live;
  pr.Steady.fire ~pos ~time:now ~fp:!fp

let driver_done d = d.st.Fast.next >= d.st.Fast.p.Packed.n && d.st.Fast.count = 0

(* One simulation cycle at [d.d_t]; the caller must have checked
   [driver_done]. Advances [d_t] (by more than one on an event skip). *)
let driver_cycle d =
  let st = d.st in
  let metrics = st.Fast.metrics in
  (match d.d_probe with
  | Some pr when st.Fast.next >= pr.Steady.next_pos ->
      if st.Fast.next > pr.Steady.next_pos then
        Steady.missed pr (st.Fast.next - 1);
      if st.Fast.next = pr.Steady.next_pos then
        driver_fingerprint d pr st.Fast.next d.d_t
  | _ -> ());
  (match metrics with
  | Some m -> Metrics.record_occupancy m st.Fast.count
  | None -> ());
  st.Fast.wake <- max_int;
  let committed = Fast.commit_pass st ~t:d.d_t in
  let dispatched = Fast.dispatch_pass st ~t:d.d_t in
  let issued = Fast.issue_pass st ~t:d.d_t in
  (match metrics with
  | Some m ->
      if issued > 0 then begin
        Metrics.record_issue ~width:issued m 1;
        Metrics.record_instructions m issued
      end
      else Metrics.record_stall m (Fast.diagnose st ~t:d.d_t) 1;
      d.d_t <- d.d_t + 1
  | None ->
      if
        d.d_can_skip && committed = 0 && dispatched = 0 && issued = 0
        && st.Fast.wake > d.d_t + 1
        && st.Fast.wake < max_int
      then d.d_t <- st.Fast.wake
      else d.d_t <- d.d_t + 1);
  d.d_guard <- d.d_guard - 1;
  if d.d_guard <= 0 then failwith "Ruu.simulate: no progress"

let driver_result d =
  let cycles = max d.st.Fast.finish d.d_t in
  (match d.st.Fast.metrics with
  | Some m -> Metrics.record_stall m Metrics.Drain (cycles - d.d_t)
  | None -> ());
  { Sim_types.cycles; instructions = d.st.Fast.p.Packed.n }

let simulate_packed ?metrics ?probe ~branches ~config ~issue_units ~ruu_size
    ~bus (p : Packed.t) =
  let d =
    make_driver ?metrics ?probe ~branches ~config ~issue_units ~ruu_size ~bus p
  in
  while not (driver_done d) do
    driver_cycle d
  done;
  driver_result d

let simulate ?metrics ?(branches = Stall) ?(reference = false) ?(accel = true)
    ~config ~issue_units ~ruu_size ~bus (trace : Trace.t) =
  if issue_units < 1 then invalid_arg "Ruu.simulate: issue_units < 1";
  if ruu_size < issue_units then invalid_arg "Ruu.simulate: ruu_size too small";
  (match branches with
  | Bimodal n when n < 1 -> invalid_arg "Ruu.simulate: bimodal table size < 1"
  | _ -> ());
  if reference then
    simulate_reference ?metrics ~branches ~config ~issue_units ~ruu_size ~bus
      trace
  else if accel then
    Steady.run ?metrics trace (fun ~metrics ~probe p ->
        simulate_packed ?metrics ?probe ~branches ~config ~issue_units
          ~ruu_size ~bus p)
  else
    simulate_packed ?metrics ~branches ~config ~issue_units ~ruu_size ~bus
      (Packed.cached trace)
