module Prng = Diva_util.Prng
module Mesh = Diva_mesh.Mesh
module Trace = Diva_obs.Trace
module Metrics = Diva_obs.Metrics
module Faults = Diva_faults.Faults
module Prof = Diva_obs.Prof
module Flight = Diva_obs.Flight

type payload = ..
type payload += Empty

type msg = {
  m_src : Mesh.node;
  m_dst : Mesh.node;
  m_size : int;
  m_tag : int;  (* selective-receive key; -1 = untagged *)
  m_payload : payload;
}

(* A blocked receive. [W_tag]/[W_any] match structurally; [W_pred] runs an
   arbitrary filter. Waiters are matched in registration (FIFO) order. *)
type wkind = W_any | W_tag of int | W_pred of (msg -> bool)
type waiter = { w_kind : wkind; w_resume : msg -> unit }

(* Mailbox entry shared between the arrival-order queue and the per-tag
   index. Consuming a message from either view marks the slot taken; the
   other view drops taken slots lazily when they reach its front, so a
   selective receive never rewrites queue contents (the old implementation
   rotated the whole inbox through a scratch queue per filtered receive —
   O(n) each; tagged receive is now O(1) amortized). *)
type slot = { sl_msg : msg; mutable sl_taken : bool }

type mailbox = {
  inbox : slot Queue.t;  (* every arrival, oldest first *)
  by_tag : (int, slot Queue.t) Hashtbl.t;  (* tagged arrivals only *)
  mutable waiters : waiter list;
}

(* Reliable-delivery envelope, used only while a fault schedule is
   installed. Every remote transmission carries a sequence number (its
   delivery slot's [dv_env]) and is acknowledged by the receiver;
   unacknowledged envelopes retransmit on an exponential-backoff timer.
   At-least-once transmission plus the receiver-side seen-set gives
   exactly-once handling. *)
type pend = {
  p_id : int;  (* causal message id; retransmissions keep it *)
  p_txn : int;
  p_level : int;  (* access-tree level tag of the original send *)
  p_src : Mesh.node;
  p_dst : Mesh.node;
  p_size : int;
  p_tag : int;
  p_inner : payload;
  mutable p_attempt : int;
  mutable p_last_tx : float;  (* start of the most recent transmission *)
}

type reliable = {
  rl_faults : Faults.t;
  mutable rl_next_seq : int;
  rl_pending : (int, pend) Hashtbl.t;  (* unacked envelopes by seq *)
  rl_seen : (int, unit) Hashtbl.t;  (* seqs already handed to a handler *)
}

(* All-float scratch record for the route walk. OCaml stores records whose
   fields are all floats flat, so these are unboxed mutable slots: the old
   per-send [float ref] accumulators boxed a fresh float on every hop.
   Safe to share per network: the walk never re-enters [send]. *)
type walk_scratch = {
  mutable wk_arrival : float;
  mutable wk_last_start : float;
  mutable wk_last_occupancy : float;
  mutable wk_outcome : float;  (* delivery time, or when the message was lost *)
}

(* Messages in flight: delivery slot [i] holds one transmission from its
   send (or retransmission, or ack) until its delivery event runs or the
   transmission is lost. Each slot owns one prebuilt [Sim] event that runs
   it, so a pending delivery allocates nothing; the [msg] a handler sees
   is built at dispatch, after the slot is released. Slots live in pages
   of [page_size], each a struct of arrays; a page is added when no slot
   is free and is never moved or copied, so growing leaves no garbage.
   Free slots are chained through [dv_next]. *)
type dpage = {
  dv_src : int array;
  dv_dst : int array;
  dv_size : int array;
  dv_tag : int array;
  dv_id : int array;  (* causal message id; -1 for acks *)
  dv_txn : int array;
  dv_env : int array;  (* -1 bare; seq >= 0 envelope; -2 - seq its ack *)
  dv_payload : payload array;
  dv_event : Sim.event array;
  dv_next : int array;  (* free-list link *)
}

let page_bits = 8
let page_size = 1 lsl page_bits

type t = {
  sim : Sim.t;
  mesh : Mesh.t;
  machine : Machine.t;
  root_rng : Prng.t;
  route_buf : int array;  (* scratch for [Mesh.route_into] on send paths *)
  walk : walk_scratch;
  mutable dv_pages : dpage array;
  mutable dv_free : int;  (* first free delivery slot; -1 = none *)
  link_free : float array;
  stats : Link_stats.t;
  cpu_free : float array;
  pending_compute : float array;
  node_compute : float array;
  handlers : (t -> msg -> unit) array;
  mailboxes : mailbox array;
  node_startup_count : int array;
  mutable startup_count : int;
  mutable fibers : int;
  mutable trace : Trace.sink;
  cell : Prof.cell;  (* [Sim.cell sim]: the layer running right now *)
  mutable prof : Prof.t option;
  mutable rel : reliable option;  (* Some iff an active fault schedule is installed *)
  (* Causal context. [cur_msg]/[cur_txn] identify the message (and the DSM
     transaction it serves) whose handler is currently executing; sends
     issued inside the handler inherit them. Both are [-1] at top level
     (fiber bodies, timers). The counters advance unconditionally — traced
     and untraced runs allocate the same ids — and nothing in the
     simulation reads them, so causal tracking cannot perturb a run. *)
  mutable next_msg_id : int;
  mutable next_txn_id : int;
  mutable cur_msg : int;
  mutable cur_txn : int;
  mutable next_level : int;  (* one-shot tree-level tag for the next send *)
}

let waiter_matches w msg =
  match w.w_kind with
  | W_any -> true
  | W_tag k -> msg.m_tag = k
  | W_pred f -> f msg

let default_handler t msg =
  let mb = t.mailboxes.(msg.m_dst) in
  let rec try_waiters acc = function
    | [] ->
        mb.waiters <- List.rev acc;
        let sl = { sl_msg = msg; sl_taken = false } in
        Queue.add sl mb.inbox;
        if msg.m_tag >= 0 then begin
          let q =
            match Hashtbl.find_opt mb.by_tag msg.m_tag with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.add mb.by_tag msg.m_tag q;
                q
          in
          Queue.add sl q
        end
    | w :: rest ->
        if waiter_matches w msg then begin
          mb.waiters <- List.rev_append acc rest;
          w.w_resume msg
        end
        else try_waiters (w :: acc) rest
  in
  try_waiters [] mb.waiters

let create_nd ?(machine = Machine.gcel) ?(seed = 42) ~dims () =
  let mesh = Mesh.create_nd ~dims in
  let n = Mesh.num_nodes mesh in
  let nl = Mesh.num_links mesh in
  let sim = Sim.create () in
  {
    sim;
    mesh;
    machine;
    root_rng = Prng.create ~seed;
    route_buf = Array.make (max 1 (Mesh.max_route_length mesh)) 0;
    walk =
      { wk_arrival = 0.0; wk_last_start = 0.0; wk_last_occupancy = 0.0;
        wk_outcome = 0.0 };
    dv_pages = [||];
    dv_free = -1;
    link_free = Array.make nl 0.0;
    stats = Link_stats.create ~num_links:nl;
    cpu_free = Array.make n 0.0;
    pending_compute = Array.make n 0.0;
    node_compute = Array.make n 0.0;
    handlers = Array.make n default_handler;
    mailboxes =
      Array.init n (fun _ ->
          { inbox = Queue.create (); by_tag = Hashtbl.create 4; waiters = [] });
    node_startup_count = Array.make n 0;
    startup_count = 0;
    fibers = 0;
    trace = Trace.null;
    cell = Sim.cell sim;
    prof = None;
    rel = None;
    next_msg_id = 0;
    next_txn_id = 0;
    cur_msg = -1;
    cur_txn = -1;
    next_level = -1;
  }

let create ?machine ?seed ~rows ~cols () =
  create_nd ?machine ?seed ~dims:[| rows; cols |] ()

let mesh t = t.mesh
let sim t = t.sim
let machine t = t.machine
let rng t = t.root_rng
let now t = Sim.now t.sim
let num_nodes t = Mesh.num_nodes t.mesh
let set_handler t node h = t.handlers.(node) <- h
let stats t = t.stats
let startups t = t.startup_count
let node_startups t node = t.node_startup_count.(node)
let compute_time t node = t.node_compute.(node)
let max_compute_time t = Array.fold_left Float.max 0.0 t.node_compute
let total_compute_time t = Array.fold_left ( +. ) 0.0 t.node_compute
let compute_times t = Array.copy t.node_compute
let live_fibers t = t.fibers
let trace t = t.trace
let set_trace t sink = t.trace <- sink

(* Causal context (see the [t] field comments). *)
let fresh_txn t =
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  id

let set_txn t txn = t.cur_txn <- txn
let cur_txn t = t.cur_txn
let cur_msg t = t.cur_msg
let tag_level t level = t.next_level <- level

let fresh_msg_id t =
  let id = t.next_msg_id in
  t.next_msg_id <- id + 1;
  id

let set_faults t f =
  (* Installing the empty schedule is a no-op: every query degenerates to
     the identity, so the run stays bit-identical to a fault-free one and
     we keep the (cheaper, envelope-free) legacy send path. *)
  if Faults.active f then begin
    if t.rel <> None then invalid_arg "Network.set_faults: faults already installed";
    t.rel <-
      Some
        {
          rl_faults = f;
          rl_next_seq = 0;
          rl_pending = Hashtbl.create 256;
          rl_seen = Hashtbl.create 1024;
        }
  end

let faults t = Option.map (fun r -> r.rl_faults) t.rel

(* Call [f b] for every boundary [b = interval, 2 * interval, ...] the
   simulated clock passes, after the last event before [b]. Sampling only
   reads state (the Sim advance hook schedules nothing), so a periodic
   sampler cannot perturb the run. *)
let every t ~what interval f =
  if not (Float.is_finite interval) || interval <= 0.0 then
    invalid_arg (Printf.sprintf "Network.%s: interval must be positive" what);
  let next = ref interval in
  Sim.add_advance_hook t.sim (fun _old_clock new_clock ->
      while !next <= new_clock do
        f !next;
        next := !next +. interval
      done)

(* Standard observability gauges plus a periodic sampler on the simulated
   clock; each sample reads the gauges registered by then. *)
let attach_metrics t ?(interval = 1000.0) m =
  every t ~what:"attach_metrics" interval (fun ts -> Metrics.sample m ~ts);
  let busy free = float_of_int (Array.fold_left
      (fun acc f -> if f > Sim.now t.sim then acc + 1 else acc) 0 free)
  in
  Metrics.gauge m "congestion_msgs"
    (fun () -> float_of_int (Link_stats.congestion_msgs t.stats));
  Metrics.gauge m "congestion_bytes"
    (fun () -> float_of_int (Link_stats.congestion_bytes t.stats));
  Metrics.gauge m "total_msgs"
    (fun () -> float_of_int (Link_stats.total_msgs t.stats));
  Metrics.gauge m "total_bytes"
    (fun () -> float_of_int (Link_stats.total_bytes t.stats));
  Metrics.gauge m "links_busy" (fun () -> busy t.link_free);
  Metrics.gauge m "cpus_busy" (fun () -> busy t.cpu_free);
  Metrics.gauge m "startups" (fun () -> float_of_int t.startup_count);
  Metrics.gauge m "total_compute"
    (fun () -> Array.fold_left ( +. ) 0.0 t.node_compute);
  Metrics.gauge m "live_fibers" (fun () -> float_of_int t.fibers);
  (match t.rel with
  | None -> ()
  | Some rel ->
      let f = rel.rl_faults in
      Metrics.gauge m "faults_lost"
        (fun () -> float_of_int (Faults.lost_total f));
      Metrics.gauge m "faults_retransmits"
        (fun () -> float_of_int (Faults.retransmits f));
      Metrics.gauge m "faults_pending"
        (fun () -> float_of_int (Hashtbl.length rel.rl_pending)))

(* Host-side self-profiling: sample the network's attribution cell, which
   the event loop, the dispatch below and the strategy handlers write
   whether or not a profiler is attached, and drive the window series
   from a periodic sampler. *)
let attach_prof t p =
  t.prof <- Some p;
  Prof.watch p t.cell;
  Prof.arm p;
  every t ~what:"attach_prof" (Prof.window_us p) (fun sim_us ->
      Prof.sample p ~sim_us ~events:(Sim.events_executed t.sim))

let prof t = t.prof

(* Flight-recorder health snapshots on the simulated clock. Event-ring
   recording is wired where the sink is built (the recorder must wrap the
   sink before anyone keeps a reference); this attaches only the periodic
   snapshot hook. *)
let attach_flight t ?(interval = 5000.0) fl =
  every t ~what:"attach_flight" interval (fun sn_sim_us ->
      Flight.snapshot fl
        {
          Flight.sn_wall = Unix.gettimeofday ();
          sn_sim_us;
          sn_events = Sim.events_executed t.sim;
          sn_pending = Sim.pending t.sim;
          sn_fibers = t.fibers;
          sn_inflight =
            (match t.rel with
            | Some rel -> Hashtbl.length rel.rl_pending
            | None -> 0);
          sn_reissues =
            (match t.rel with
            | Some rel -> Faults.dsm_reissues rel.rl_faults
            | None -> 0);
        })

(* Reserve the node's CPU for [dt] starting no earlier than [from]; returns
   the completion time. Pending charged computation is folded in first.
   Inlined so that the send path's floats stay unboxed. *)
let[@inline] reserve_cpu t node ~from dt =
  let pending = t.pending_compute.(node) in
  t.pending_compute.(node) <- 0.0;
  let start = Float.max from t.cpu_free.(node) in
  let start =
    match t.rel with
    | Some r -> Faults.defer r.rl_faults ~node start
    | None -> start
  in
  let fin = start +. pending +. dt in
  t.cpu_free.(node) <- fin;
  fin

(* Delivery slot [i] is entry [slot i] of page [page t i]. *)
let[@inline] page t i = t.dv_pages.(i lsr page_bits)
let[@inline] slot i = i land (page_size - 1)

(* Schedules slot [i]'s event and returns the time it runs, so the caller
   can record it in the delivery event. The handler runs after the receive
   overhead on the destination CPU; an ack is a hardware-level control
   message, which the envelope layer consumes at arrival time. *)
let[@inline] deliver t i ~is_ack at =
  let p = page t i and k = slot i in
  let handle_at =
    if is_ack then at
    else reserve_cpu t p.dv_dst.(k) ~from:at t.machine.Machine.recv_overhead
  in
  Sim.schedule_event t.sim handle_at p.dv_event.(k);
  handle_at

(* Take a free delivery slot and fill it. The slot is released when its
   delivery event runs, or by [lose]. *)
let rec acquire t ~src ~dst ~size ~tag ~id ~txn ~env payload =
  if t.dv_free < 0 then add_page t;
  let i = t.dv_free in
  let p = page t i and k = slot i in
  t.dv_free <- p.dv_next.(k);
  p.dv_src.(k) <- src;
  p.dv_dst.(k) <- dst;
  p.dv_size.(k) <- size;
  p.dv_tag.(k) <- tag;
  p.dv_id.(k) <- id;
  p.dv_txn.(k) <- txn;
  p.dv_env.(k) <- env;
  p.dv_payload.(k) <- payload;
  i

and add_page t =
  let base = Array.length t.dv_pages * page_size in
  let ints () = Array.make page_size 0 in
  let run = run_slot t in
  let p =
    { dv_src = ints (); dv_dst = ints (); dv_size = ints (); dv_tag = ints ();
      dv_id = ints (); dv_txn = ints (); dv_env = ints ();
      dv_payload = Array.make page_size Empty;
      dv_event = Array.init page_size (fun k -> Sim.event run (base + k));
      dv_next =
        Array.init page_size (fun k ->
            if k = page_size - 1 then t.dv_free else base + k + 1) }
  in
  t.dv_pages <- Array.append t.dv_pages [| p |];
  t.dv_free <- base

(* Return a slot to the free list, dropping its payload reference. *)
and release t i =
  let p = page t i and k = slot i in
  p.dv_payload.(k) <- Empty;
  p.dv_next.(k) <- t.dv_free;
  t.dv_free <- i

(* The delivery event of slot [i]: set the causal context, release the
   slot, run the envelope layer / handler, reset. Without installed
   faults every slot is bare ([dv_env = -1]) and this is the handler
   call; envelopes and acks exist only under faults. *)
and run_slot t i =
  let p = page t i and k = slot i in
  let env = p.dv_env.(k) in
  t.cur_msg <- p.dv_id.(k);
  t.cur_txn <- p.dv_txn.(k);
  t.cell.sub <- Prof.Protocol;
  (if env < -1 then begin
     release t i;
     let rel = Option.get t.rel and seq = -2 - env in
     if Hashtbl.mem rel.rl_pending seq then begin
       Hashtbl.remove rel.rl_pending seq;
       Faults.count_ack rel.rl_faults
     end
   end
   else begin
     let msg =
       { m_src = p.dv_src.(k); m_dst = p.dv_dst.(k); m_size = p.dv_size.(k);
         m_tag = p.dv_tag.(k); m_payload = p.dv_payload.(k) }
     in
     release t i;
     if env = -1 then t.handlers.(msg.m_dst) t msg
     else begin
       (* Always (re-)acknowledge — the previous ack may have been lost —
          but hand only the first copy to the handler. Acks have no
          [Msg_send] of their own, so they carry id [-1] (the sentinel
          analyzers filter on) and inherit the envelope's transaction. *)
       let rel = Option.get t.rel in
       transmit t rel ~level:(-1)
         (acquire t ~src:msg.m_dst ~dst:msg.m_src ~size:Faults.ack_size
            ~tag:(-1) ~id:(-1) ~txn:t.cur_txn ~env:(-2 - env) Empty);
       if not (Hashtbl.mem rel.rl_seen env) then begin
         Hashtbl.add rel.rl_seen env ();
         t.handlers.(msg.m_dst) t msg
       end
     end
   end);
  t.cur_msg <- -1;
  t.cur_txn <- -1

(* One physical transmission attempt of slot [i] under an installed fault
   schedule: seeded probabilistic loss at injection, then the shared
   wormhole {!walk} with its fault hooks armed. Leaves the attempt's
   outcome time — delivery or loss — in [t.walk.wk_outcome], so retry
   timers can be armed from when the attempt actually resolved rather than
   when it was injected (a message queued behind congested links must not
   be retransmitted while still in flight: that feedback loop melts the
   network).

   [?inject] lets the caller reserve the sender's CPU (and account the
   startup) itself before calling, so it can emit the [Msg_send] event
   ahead of the attempt's link crossings. *)
and transmit ?inject t rel ~level i =
  let f = rel.rl_faults in
  let p = page t i and k = slot i in
  let src = p.dv_src.(k) in
  (* Acks are modelled as hardware-level control messages: they occupy
     links like any flit but cost no CPU overhead on either side and do
     not count as startups. Charging the full 500 us send/recv overhead
     per ack doubles the CPU load of every hot protocol node, which
     inflates latencies past the retry timeout and feeds a spurious
     retransmission spiral. *)
  let is_ack = p.dv_env.(k) < -1 in
  let inject_at =
    match inject with
    | Some at -> at
    | None ->
        if is_ack then Faults.defer f ~node:src (now t)
        else begin
          t.startup_count <- t.startup_count + 1;
          t.node_startup_count.(src) <- t.node_startup_count.(src) + 1;
          reserve_cpu t src ~from:(now t) t.machine.Machine.send_overhead
        end
  in
  if Faults.draw_drop f ~now:inject_at then begin
    lose t f i Trace.Loss_random inject_at;
    t.walk.wk_outcome <- inject_at
  end
  else begin
    t.walk.wk_arrival <- inject_at;
    walk t ~level ~is_ack i
  end

(* Eager wormhole approximation, shared by every remote transmission: the
   header advances hop by hop, each link is occupied for the full transfer
   time, the tail leaves the last link [occupancy] after the header entered
   it. The route is walked out of a preallocated buffer with unboxed float
   accumulators, so the fault-free walk allocates nothing. The fault hooks
   — outage loss, per-link slowdown, crash-window loss — run only while a
   schedule is installed. The caller leaves the injection time in
   [t.walk.wk_arrival] (floats passed through the scratch record stay
   unboxed); the walk leaves the outcome time (delivery, or the loss) in
   [t.walk.wk_outcome]. *)
and walk t ~level ~is_ack i =
  let p = page t i and k = slot i in
  let src = p.dv_src.(k) and dst = p.dv_dst.(k) and size = p.dv_size.(k) in
  let id = p.dv_id.(k) and txn = p.dv_txn.(k) in
  (* [Machine.transfer_time], computed here so it stays unboxed. *)
  let transfer = float_of_int size /. t.machine.Machine.link_bandwidth in
  let hops = Mesh.route_into t.mesh ~src ~dst t.route_buf in
  let wk = t.walk in
  wk.wk_last_start <- wk.wk_arrival;
  wk.wk_last_occupancy <- 0.0;
  let lost = ref false and h = ref 0 in
  while (not !lost) && !h < hops do
    let link = t.route_buf.(!h) in
    incr h;
    let start = Float.max wk.wk_arrival t.link_free.(link) in
    match t.rel with
    | Some rel when Faults.link_down rel.rl_faults ~link ~now:start ->
        lost := true;
        lose t rel.rl_faults i Trace.Loss_link_down start;
        wk.wk_outcome <- start
    | rel ->
        let occupancy =
          match rel with
          | None -> transfer
          | Some r -> transfer *. Faults.link_factor r.rl_faults ~link ~now:start
        in
        t.link_free.(link) <- start +. occupancy;
        Link_stats.record t.stats ~link ~bytes:size;
        if Trace.enabled t.trace then
          Trace.emit t.trace
            (Trace.Link_xfer
               { start; finish = start +. occupancy; link; msg = id; txn;
                 level; src; dst; size });
        wk.wk_last_start <- start;
        wk.wk_last_occupancy <- occupancy;
        wk.wk_arrival <- start +. t.machine.Machine.hop_latency
  done;
  if not !lost then begin
    let delivered_at = wk.wk_last_start +. wk.wk_last_occupancy in
    wk.wk_outcome <- delivered_at;
    match t.rel with
    | Some rel when Faults.crashed rel.rl_faults ~node:dst ~now:delivered_at ->
        lose t rel.rl_faults i Trace.Loss_crashed delivered_at
    | _ ->
        let handled = deliver t i ~is_ack delivered_at in
        if Trace.enabled t.trace then
          Trace.emit t.trace
            (Trace.Msg_deliver
               { ts = delivered_at; id; txn; handled; src; dst; size })
  end

(* A transmission lost to an injected fault: counted, traced and its slot
   released, never delivered. *)
and lose t f i reason ts =
  Faults.count_lost f reason;
  let p = page t i and k = slot i in
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Msg_lost
         { ts; msg = p.dv_id.(k); txn = p.dv_txn.(k); src = p.dv_src.(k);
           dst = p.dv_dst.(k); size = p.dv_size.(k); reason });
  release t i

(* Retransmission timer, armed from the attempt's outcome time [from]
   (delivery or loss) with exponential backoff capped at rto * 2^6. The
   captured attempt number makes stale timers (superseded by an earlier
   retransmit, e.g. a watchdog nudge) no-ops. *)
and arm_timeout t rel seq p ~from =
  let attempt = p.p_attempt in
  let backoff = Faults.rto rel.rl_faults *. Float.of_int (1 lsl min attempt 6) in
  Sim.schedule t.sim (from +. backoff) (fun () ->
      if Hashtbl.mem rel.rl_pending seq && p.p_attempt = attempt then
        retransmit t rel seq p)

and retransmit t rel seq p =
  p.p_attempt <- p.p_attempt + 1;
  p.p_last_tx <- now t;
  Faults.count_retransmit rel.rl_faults;
  if Trace.enabled t.trace then
    Trace.emit t.trace
      (Trace.Msg_retry
         { ts = now t; msg = p.p_id; txn = p.p_txn; src = p.p_src;
           dst = p.p_dst; size = p.p_size; attempt = p.p_attempt });
  transmit t rel ~level:p.p_level
    (acquire t ~src:p.p_src ~dst:p.p_dst ~size:p.p_size ~tag:p.p_tag
       ~id:p.p_id ~txn:p.p_txn ~env:seq p.p_inner);
  arm_timeout t rel seq p ~from:t.walk.wk_outcome

let post t ~tag ~src ~dst ~size payload =
  let id = fresh_msg_id t in
  let txn = t.cur_txn and parent = t.cur_msg and level = t.next_level in
  t.next_level <- -1;
  let t0 = now t in
  if src = dst then begin
    (* Node-local protocol hop: no startup, no network traffic, no
       envelope. *)
    let at = reserve_cpu t src ~from:t0 t.machine.Machine.local_overhead in
    if Trace.enabled t.trace then
      Trace.emit t.trace
        (Trace.Msg_send
           { ts = t0; id; parent; txn; inject = at; level; src; dst; size;
             local = true });
    let i = acquire t ~src ~dst ~size ~tag ~id ~txn ~env:(-1) payload in
    Sim.schedule_event t.sim at (page t i).dv_event.(slot i)
  end
  else begin
    t.startup_count <- t.startup_count + 1;
    t.node_startup_count.(src) <- t.node_startup_count.(src) + 1;
    let inject_at = reserve_cpu t src ~from:t0 t.machine.Machine.send_overhead in
    (* [Msg_send] goes out before the first attempt: single-pass analyzers
       must see the message record before its link crossings (and a
       same-instant delivery or loss). *)
    if Trace.enabled t.trace then
      Trace.emit t.trace
        (Trace.Msg_send
           { ts = t0; id; parent; txn; inject = inject_at; level; src; dst;
             size; local = false });
    match t.rel with
    | None ->
        t.walk.wk_arrival <- inject_at;
        walk t ~level ~is_ack:false
          (acquire t ~src ~dst ~size ~tag ~id ~txn ~env:(-1) payload)
    | Some rel ->
        let seq = rel.rl_next_seq in
        rel.rl_next_seq <- seq + 1;
        Faults.count_enveloped rel.rl_faults;
        let p = { p_id = id; p_txn = txn; p_level = level; p_src = src;
                  p_dst = dst; p_size = size; p_tag = tag; p_inner = payload;
                  p_attempt = 0; p_last_tx = t0 } in
        Hashtbl.add rel.rl_pending seq p;
        transmit ~inject:inject_at t rel ~level
          (acquire t ~src ~dst ~size ~tag ~id ~txn ~env:seq payload);
        arm_timeout t rel seq p ~from:t.walk.wk_outcome
  end

(* The send's own work (routing, link walk, queue insert) books to
   [Protocol], then the caller's layer — typically a strategy handler — is
   restored. *)
let send t ?(tag = -1) ~src ~dst ~size payload =
  let cell = t.cell in
  let saved = cell.sub in
  cell.sub <- Prof.Protocol;
  post t ~tag ~src ~dst ~size payload;
  cell.sub <- saved

(* Forced early retransmission of the envelopes still pending from [src],
   in seq order for determinism. The DSM watchdog calls this when a
   transaction has been blocked longer than the schedule's patience —
   cheaper and safer than re-issuing the transaction itself, which could
   double-commit a write. Only envelopes idle for at least one rto are
   touched: retransmitting a message that is merely queued behind
   congested links would amplify the very congestion that delayed it. *)
let nudge t ~src =
  match t.rel with
  | None -> ()
  | Some rel ->
      let stale_before = now t -. Faults.rto rel.rl_faults in
      Hashtbl.fold
        (fun seq p acc ->
          if p.p_src = src && p.p_last_tx <= stale_before then (seq, p) :: acc
          else acc)
        rel.rl_pending []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (seq, p) -> retransmit t rel seq p)

(* ------------------------------------------------------------------ *)
(* Fibers                                                              *)
(* ------------------------------------------------------------------ *)

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend register = Effect.perform (Suspend register)

let spawn t node f =
  t.fibers <- t.fibers + 1;
  let open Effect.Deep in
  let body () =
    match_with f ()
      {
        retc = (fun () -> t.fibers <- t.fibers - 1);
        exnc = raise;
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | Suspend register ->
                Some
                  (fun (k : (b, _) continuation) ->
                    register (fun v -> continue k v))
            | _ -> None);
      }
  in
  ignore node;
  (* Fiber bodies start at top level, outside any message's causal extent. *)
  Sim.schedule_now t.sim (fun () ->
      t.cur_msg <- -1;
      t.cur_txn <- -1;
      body ())

let compute t node dt =
  if dt < 0.0 then invalid_arg "Network.compute: negative time";
  t.node_compute.(node) <- t.node_compute.(node) +. dt;
  let fin = reserve_cpu t node ~from:(now t) dt in
  suspend (fun resume ->
      Sim.schedule t.sim fin (fun () ->
          (* A timer resume is not caused by any message. *)
          t.cur_msg <- -1;
          t.cur_txn <- -1;
          resume ()))

let charge t node dt =
  if dt < 0.0 then invalid_arg "Network.charge: negative time";
  t.node_compute.(node) <- t.node_compute.(node) +. dt;
  t.pending_compute.(node) <- t.pending_compute.(node) +. dt

let flush_charge t node =
  if t.pending_compute.(node) > 0.0 then compute t node 0.0

(* Drop taken slots (consumed through the other view) off the queue front,
   then pop the first live one. Each slot is popped at most twice across
   both views, so the lazy deletion is O(1) amortized. *)
let pop_live q =
  let rec go () =
    match Queue.peek_opt q with
    | None -> None
    | Some sl ->
        ignore (Queue.pop q : slot);
        if sl.sl_taken then go ()
        else begin
          sl.sl_taken <- true;
          Some sl.sl_msg
        end
  in
  go ()

exception Found of msg

let recv t node ?where ?tag () =
  let mb = t.mailboxes.(node) in
  let take () =
    match (where, tag) with
    | Some _, Some _ -> invalid_arg "Network.recv: ~where and ~tag are exclusive"
    | None, Some k -> (
        (* O(1) amortized: oldest message with this tag, straight off the
           tag queue's front. *)
        match Hashtbl.find_opt mb.by_tag k with
        | None -> None
        | Some q -> pop_live q)
    | None, None -> pop_live mb.inbox
    | Some f, None -> (
        (* Arbitrary predicate: scan arrival order, but consume in place by
           marking the slot taken — no drain-and-requeue rotation. *)
        try
          Queue.iter
            (fun sl ->
              if (not sl.sl_taken) && f sl.sl_msg then begin
                sl.sl_taken <- true;
                raise (Found sl.sl_msg)
              end)
            mb.inbox;
          None
        with Found m -> Some m)
  in
  match take () with
  | Some m -> m
  | None ->
      let kind =
        match (where, tag) with
        | None, Some k -> W_tag k
        | Some f, None -> W_pred f
        | None, None -> W_any
        | Some _, Some _ -> assert false
      in
      suspend (fun resume ->
          mb.waiters <- mb.waiters @ [ { w_kind = kind; w_resume = resume } ])

let mailbox_deliver t msg = default_handler t msg

let run t =
  Sim.run t.sim;
  if t.fibers > 0 then
    failwith
      (Printf.sprintf
         "Network.run: deadlock — %d fiber(s) still blocked at t = %.1f us"
         t.fibers (now t))
