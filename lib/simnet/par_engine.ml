(* Conservative, windowed, domain-sharded discrete-event engine.

   The model is partitioned into a FIXED number of logical shards chosen by
   the model builder (e.g. one per mesh row), independent of how many
   domains execute them — that independence is what makes results
   bit-identical for every domain count. Each shard owns a serial event
   queue and clock. Cross-shard interactions must respect a minimum
   latency, the [lookahead]: an event posted from shard A at time [t] into
   shard B carries a timestamp [>= t + lookahead].

   Execution proceeds in global time windows of width [lookahead]. The
   window [w, w + lookahead) starts at the global minimum pending
   timestamp [w], so gaps in the timeline are skipped in one hop. Within a
   window every shard processes its local events with [t < w + lookahead]
   strictly in (time, seq) order; any event those executions post across
   shards lands at [t' >= t + lookahead >= w + lookahead], i.e. beyond the
   window, so no shard can receive work for a window it is currently
   executing — the classical conservative-synchronization argument, with
   the window doubling as the barrier period.

   Cross-shard posts are buffered in per-(src, dst) outboxes. At the
   barrier after each window, every shard drains the outboxes addressed to
   it in ascending source-shard order, each in FIFO order, into its local
   queue. Both the drain order and the serial in-window execution are
   functions of shard state alone, never of the domain layout or of OS
   scheduling, so a run with [--domains 8] produces byte-identical results
   to [--domains 1]. Domains only decide which OS thread happens to
   execute a given shard's (deterministic) work.

   The barrier itself is a sense-reversing mutex/condvar barrier crossed
   twice per window: once so every outbox is complete before drains begin,
   once so every drain is complete before the next window's execution (the
   last domain to arrive at the second crossing also computes the next
   window start, or signals termination when all queues are empty). *)

module Heap = Diva_util.Event_queue

type 'a shard = {
  s_id : int;
  s_queue : 'a Heap.t;
  mutable s_clock : float;
  mutable s_executed : int;
  s_outboxes : (float * 'a) Queue.t array; (* indexed by destination shard *)
}

type 'a t = {
  shards : 'a shard array;
  lookahead : float;
}

type 'a ctx = { c_eng : 'a t; c_shard : 'a shard }

let create ~shards ~lookahead =
  if shards < 1 then invalid_arg "Par_engine.create: shards must be >= 1";
  if not (lookahead > 0.0) then
    invalid_arg "Par_engine.create: lookahead must be > 0";
  {
    shards =
      Array.init shards (fun i ->
          {
            s_id = i;
            s_queue = Heap.create ();
            s_clock = 0.0;
            s_executed = 0;
            s_outboxes = Array.init shards (fun _ -> Queue.create ());
          });
    lookahead;
  }

let num_shards t = Array.length t.shards
let lookahead t = t.lookahead

let schedule_init t ~shard ~at msg =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Par_engine.schedule_init: bad shard";
  if not (at >= 0.0) then invalid_arg "Par_engine.schedule_init: bad time";
  Heap.insert t.shards.(shard).s_queue at msg

let events_executed t =
  Array.fold_left (fun acc s -> acc + s.s_executed) 0 t.shards

let ctx_shard c = c.c_shard.s_id
let ctx_now c = c.c_shard.s_clock
let ctx_num_shards c = num_shards c.c_eng

let ctx_schedule c ~at msg =
  if not (at >= c.c_shard.s_clock) then
    invalid_arg "Par_engine.ctx_schedule: time is in the past";
  Heap.insert c.c_shard.s_queue at msg

let ctx_post c ~dst ~at msg =
  if dst < 0 || dst >= num_shards c.c_eng then
    invalid_arg "Par_engine.ctx_post: bad destination shard"
  else if dst = c.c_shard.s_id then ctx_schedule c ~at msg
  else if at < c.c_shard.s_clock +. c.c_eng.lookahead then
    invalid_arg
      "Par_engine.ctx_post: cross-shard event closer than the lookahead"
  else Queue.push (at, msg) c.c_shard.s_outboxes.(dst)

(* ------------------------------------------------------------------ *)

(* Sense-reversing barrier. [cross b f] blocks until all parties arrive;
   the LAST arriver runs [f ()] (while holding the lock) before releasing
   everyone — that is where the global reduction for the next window
   lives. *)
type barrier = {
  b_mutex : Mutex.t;
  b_cond : Condition.t;
  b_parties : int;
  mutable b_waiting : int;
  mutable b_sense : bool;
}

let barrier_create parties =
  {
    b_mutex = Mutex.create ();
    b_cond = Condition.create ();
    b_parties = parties;
    b_waiting = 0;
    b_sense = false;
  }

let cross b f =
  Mutex.lock b.b_mutex;
  let sense = b.b_sense in
  b.b_waiting <- b.b_waiting + 1;
  if b.b_waiting = b.b_parties then begin
    f ();
    b.b_waiting <- 0;
    b.b_sense <- not sense;
    Condition.broadcast b.b_cond
  end
  else
    while b.b_sense = sense do
      Condition.wait b.b_cond b.b_mutex
    done;
  Mutex.unlock b.b_mutex

(* ------------------------------------------------------------------ *)

(* Per-domain wall-clock accounting, kept by every [run] and copied out
   under [?telemetry]. All writes are either domain-local (each domain owns
   its [dom_stat]) or made while holding the barrier lock (window count),
   so recording needs no extra synchronization — and nothing in the model
   reads any of it, so timing cannot perturb a run. All-float, so the
   per-window updates store unboxed. *)
type dom_stat = {
  mutable d_busy_s : float;  (* executing events + draining outboxes *)
  mutable d_barrier_s : float;  (* waiting at the two window barriers *)
}

type telemetry = {
  mutable tl_domains : int;
  mutable tl_windows : int;
  mutable tl_wall_s : float;
  mutable tl_doms : dom_stat array;
  mutable tl_dom_events : int array;
  mutable tl_shard_events : int array;
}

let telemetry_create () =
  {
    tl_domains = 0;
    tl_windows = 0;
    tl_wall_s = 0.0;
    tl_doms = [||];
    tl_dom_events = [||];
    tl_shard_events = [||];
  }

let tl_stall_frac tl =
  let busy = Array.fold_left (fun a d -> a +. d.d_busy_s) 0.0 tl.tl_doms in
  let wait = Array.fold_left (fun a d -> a +. d.d_barrier_s) 0.0 tl.tl_doms in
  if busy +. wait > 0.0 then wait /. (busy +. wait) else 0.0

(* Max shard load over mean shard load: 1.0 is a perfectly balanced
   decomposition; the window occupancy of the busiest shard bounds every
   domain layout's speedup. *)
let tl_shard_imbalance tl =
  let n = Array.length tl.tl_shard_events in
  if n = 0 then 1.0
  else
    let total = Array.fold_left ( + ) 0 tl.tl_shard_events in
    if total = 0 then 1.0
    else
      let mx = Array.fold_left max 0 tl.tl_shard_events in
      float_of_int mx /. (float_of_int total /. float_of_int n)

let telemetry_json tl =
  let open Diva_obs.Json in
  Obj
    [
      ("domains", Int tl.tl_domains);
      ("windows", Int tl.tl_windows);
      ("wall_s", Float tl.tl_wall_s);
      ("stall_frac", Float (tl_stall_frac tl));
      ("shard_imbalance", Float (tl_shard_imbalance tl));
      ( "domains_detail",
        List
          (Array.to_list
             (Array.map2
                (fun d events ->
                  Obj
                    [
                      ("busy_s", Float d.d_busy_s);
                      ("barrier_s", Float d.d_barrier_s);
                      ("events", Int events);
                    ])
                tl.tl_doms tl.tl_dom_events)) );
      ( "shard_events",
        List
          (Array.to_list
             (Array.map (fun e -> Int e) tl.tl_shard_events)) );
    ]

let min_pending t =
  Array.fold_left
    (fun acc s ->
      match Heap.min_priority s.s_queue with
      | Some p -> Float.min acc p
      | None -> acc)
    Float.infinity t.shards

let run ?(domains = 1) ?telemetry t ~handler =
  let s = Array.length t.shards in
  let domains = max 1 (min domains s) in
  let run0 = Unix.gettimeofday () in
  let doms =
    Array.init domains (fun _ -> { d_busy_s = 0.0; d_barrier_s = 0.0 })
  in
  let windows = ref 0 in
  (* Contiguous shard blocks per domain, first blocks one larger. *)
  let base = s / domains and extra = s mod domains in
  let lo d = (d * base) + min d extra in
  let hi d = lo (d + 1) in
  let barrier = barrier_create domains in
  let window_end = ref Float.infinity in
  let finished = ref false in
  (* First handler exception wins; the failing domain keeps crossing
     barriers (processing nothing) so nobody deadlocks, and the exception
     is re-raised on the calling domain after all joins. *)
  let error : exn option ref = ref None in
  let record e =
    Mutex.lock barrier.b_mutex;
    if !error = None then error := Some e;
    Mutex.unlock barrier.b_mutex
  in
  (let w0 = min_pending t in
   if w0 = Float.infinity then finished := true
   else window_end := w0 +. t.lookahead);
  let drain shard =
    Array.iter
      (fun src ->
        let ob = src.s_outboxes.(shard.s_id) in
        while not (Queue.is_empty ob) do
          let at, msg = Queue.pop ob in
          Heap.insert shard.s_queue at msg
        done)
      t.shards
  in
  let exec_window d w_end =
    try
      for i = lo d to hi d - 1 do
        let shard = t.shards.(i) in
        let ctx = { c_eng = t; c_shard = shard } in
        let continue = ref true in
        while !continue do
          if Heap.is_empty shard.s_queue then continue := false
          else
            let at = Heap.min_priority_exn shard.s_queue in
            if at >= w_end then continue := false
            else begin
              let msg = Heap.pop_exn shard.s_queue in
              shard.s_clock <- at;
              shard.s_executed <- shard.s_executed + 1;
              handler ctx msg
            end
        done
      done
    with e -> record e
  in
  (* All drains are complete; the last domain counts the window and picks
     the next one (it holds the barrier lock here). *)
  let pick_next () =
    incr windows;
    if !error <> None then finished := true
    else
      let m = min_pending t in
      if m = Float.infinity then finished := true
      else window_end := Float.max (m +. t.lookahead) !window_end
  in
  (* Busy time is event execution + outbox drains; barrier time is the two
     crossings. *)
  let worker d () =
    let st = doms.(d) in
    while not !finished do
      let t0 = Unix.gettimeofday () in
      exec_window d !window_end;
      let t1 = Unix.gettimeofday () in
      (* All outboxes for this window are complete. *)
      cross barrier (fun () -> ());
      let t2 = Unix.gettimeofday () in
      for i = lo d to hi d - 1 do
        drain t.shards.(i)
      done;
      let t3 = Unix.gettimeofday () in
      cross barrier pick_next;
      let t4 = Unix.gettimeofday () in
      st.d_busy_s <- st.d_busy_s +. (t1 -. t0) +. (t3 -. t2);
      st.d_barrier_s <- st.d_barrier_s +. (t2 -. t1) +. (t4 -. t3)
    done
  in
  if domains = 1 then worker 0 ()
  else begin
    let spawned =
      List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    List.iter Domain.join spawned
  end;
  (match telemetry with
  | Some tl ->
      tl.tl_domains <- domains;
      tl.tl_windows <- !windows;
      tl.tl_wall_s <- Unix.gettimeofday () -. run0;
      tl.tl_doms <- doms;
      tl.tl_shard_events <- Array.map (fun sh -> sh.s_executed) t.shards;
      tl.tl_dom_events <-
        Array.init domains (fun d ->
            let ev = ref 0 in
            for i = lo d to hi d - 1 do
              ev := !ev + t.shards.(i).s_executed
            done;
            !ev)
  | None -> ());
  match !error with Some e -> raise e | None -> ()
