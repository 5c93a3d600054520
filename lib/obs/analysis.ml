(* Critical-path extraction and cost attribution over span trees.

   The machine's overhead constants arrive as parameters: [Diva_obs] sits
   below the simulator in the dependency order, so it cannot read
   [Diva_simnet.Machine] itself. *)

type overheads = {
  send_overhead : float;
  recv_overhead : float;
  local_overhead : float;
}

type cost = {
  startup_us : float;
  transfer_us : float;
  queue_us : float;
  cpu_us : float;
}

let zero_cost = { startup_us = 0.0; transfer_us = 0.0; queue_us = 0.0; cpu_us = 0.0 }

let add_cost a b =
  {
    startup_us = a.startup_us +. b.startup_us;
    transfer_us = a.transfer_us +. b.transfer_us;
    queue_us = a.queue_us +. b.queue_us;
    cpu_us = a.cpu_us +. b.cpu_us;
  }

let total_cost c = c.startup_us +. c.transfer_us +. c.queue_us +. c.cpu_us

let op_name = function
  | Trace.Read -> "read"
  | Trace.Write -> "write"
  | Trace.Lock -> "lock"
  | Trace.Unlock -> "unlock"
  | Trace.Barrier -> "barrier"
  | Trace.Reduce -> "reduce"

(* Strategy-neutral view of one completing-chain message: what the
   decomposition sweep needs, detached from where the records live (full
   {!Spans} tables or a streaming analyzer's retained prefix). *)
type chain_link = {
  cl_local : bool;
  cl_inject : float;
  cl_handled : float option;
  cl_xfers : (float * float) list;  (* (start, finish), arrival order *)
}

let chain_link_of_msg (m : Spans.msg) =
  {
    cl_local = m.Spans.local;
    cl_inject = m.Spans.inject;
    cl_handled = m.Spans.handled;
    cl_xfers = List.map (fun (_, s, f) -> (s, f)) m.Spans.xfers;
  }

(* Exact decomposition of one transaction's blocking window [t0, t0+dur]:
   every message on the completing causal chain contributes labeled time
   segments (send/receive overheads -> startup, link occupancy -> transfer,
   local handler cost -> cpu), clipped to the window. A boundary sweep
   measures the union with precedence startup > transfer > cpu, and the
   uncovered remainder is queueing (CPU contention, link contention and
   header propagation). By construction every term is non-negative (up to
   float rounding) and the four sum exactly to [dur].

   The clipping makes the result insensitive to events emitted after the
   completion event: any link crossing emitted later (a post-completion
   retransmission) starts at or after [t0 +. dur] and clips to nothing, so
   a streaming analyzer that retires the transaction at its completion
   event computes the same cost bit for bit. *)
let decompose_chain ov ~t0 ~dur links =
  let t1 = t0 +. dur in
  let segs = ref [] in
  let add label a b =
    let a = Float.max a t0 and b = Float.min b t1 in
    if b > a then segs := (label, a, b) :: !segs
  in
  List.iter
    (fun l ->
      if l.cl_local then add `Cpu (l.cl_inject -. ov.local_overhead) l.cl_inject
      else begin
        add `Startup (l.cl_inject -. ov.send_overhead) l.cl_inject;
        List.iter (fun (s, f) -> add `Transfer s f) l.cl_xfers;
        match l.cl_handled with
        | Some h -> add `Startup (h -. ov.recv_overhead) h
        | None -> ()
      end)
    links;
  let pts =
    List.sort_uniq Float.compare
      (t0 :: t1 :: List.concat_map (fun (_, a, b) -> [ a; b ]) !segs)
  in
  let startup = ref 0.0 and transfer = ref 0.0 and cpu = ref 0.0 in
  let rec sweep = function
    | a :: (b :: _ as rest) ->
        let mid = (a +. b) /. 2.0 in
        let active l =
          List.exists (fun (l', x, y) -> l' = l && x <= mid && mid < y) !segs
        in
        let d = b -. a in
        if active `Startup then startup := !startup +. d
        else if active `Transfer then transfer := !transfer +. d
        else if active `Cpu then cpu := !cpu +. d;
        sweep rest
    | _ -> ()
  in
  sweep pts;
  {
    startup_us = !startup;
    transfer_us = !transfer;
    queue_us = dur -. (!startup +. !transfer +. !cpu);
    cpu_us = !cpu;
  }

let decompose ov spans (txn : Spans.txn) =
  decompose_chain ov ~t0:txn.Spans.t_start ~dur:txn.Spans.t_dur
    (List.map chain_link_of_msg (Spans.chain spans txn))

(* Cost of one side-branch message (e.g. an invalidation fan-out hop) from
   its at-completion snapshot. Side branches run concurrently with the
   blocking window, so their terms are attributed per message rather than
   swept as a timeline: overheads -> startup, link occupancy -> transfer,
   local handler cost -> cpu, and the dead time between issue and
   injection (CPU queueing) -> queue. A message still in flight at
   completion is charged for what it had consumed by then. *)
let side_cost ov (s : Spans.side) =
  if s.Spans.s_local then
    {
      startup_us = 0.0;
      transfer_us = 0.0;
      queue_us =
        Float.max 0.0 (s.Spans.s_inject -. s.Spans.s_sent -. ov.local_overhead);
      cpu_us = ov.local_overhead;
    }
  else
    match s.Spans.s_handled with
    | Some h ->
        let startup = ov.send_overhead +. ov.recv_overhead in
        {
          startup_us = startup;
          transfer_us = s.Spans.s_xfer_us;
          queue_us =
            Float.max 0.0 (h -. s.Spans.s_sent -. startup -. s.Spans.s_xfer_us);
          cpu_us = 0.0;
        }
    | None ->
        {
          startup_us = ov.send_overhead;
          transfer_us = s.Spans.s_xfer_us;
          queue_us =
            Float.max 0.0
              (s.Spans.s_inject -. s.Spans.s_sent -. ov.send_overhead);
          cpu_us = 0.0;
        }

let sides_cost ov sides =
  List.fold_left (fun a s -> add_cost a (side_cost ov s)) zero_cost sides

(* ------------------------------------------------------------------ *)
(* Traffic profiles                                                     *)
(* ------------------------------------------------------------------ *)

type level_row = {
  lv_level : int;  (** access-tree depth; -1 collects untagged traffic *)
  lv_msgs : int;
  lv_bytes : int;
  lv_local : int;  (** how many of the messages were same-processor hops *)
  lv_crossings : int;  (** directed-link crossings *)
  lv_link_bytes : int;  (** bytes weighted by links crossed *)
}

let level_profile spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (m : Spans.msg) ->
      let r =
        match Hashtbl.find_opt tbl m.Spans.level with
        | Some r -> r
        | None ->
            let r =
              ref
                {
                  lv_level = m.Spans.level;
                  lv_msgs = 0;
                  lv_bytes = 0;
                  lv_local = 0;
                  lv_crossings = 0;
                  lv_link_bytes = 0;
                }
            in
            Hashtbl.add tbl m.Spans.level r;
            r
      in
      let nx = List.length m.Spans.xfers in
      r :=
        {
          !r with
          lv_msgs = !r.lv_msgs + 1;
          lv_bytes = !r.lv_bytes + m.Spans.size;
          lv_local = (!r.lv_local + if m.Spans.local then 1 else 0);
          lv_crossings = !r.lv_crossings + nx;
          lv_link_bytes = !r.lv_link_bytes + (nx * m.Spans.size);
        })
    (Spans.msgs spans);
  List.sort
    (fun a b -> compare a.lv_level b.lv_level)
    (Hashtbl.fold (fun _ r acc -> !r :: acc) tbl [])

type link_row = {
  lk_link : int;
  lk_msgs : int;
  lk_bytes : int;
  lk_busy_us : float;
}

type window = {
  w_start : float;
  w_finish : float;
  w_link_bytes : (int * float) list;
      (** per-link bytes attributed to the window, overlap-proportional;
          ascending link id, zero links omitted *)
}

type op_row = {
  or_op : Trace.dsm_op;
  or_count : int;  (** miss-path transactions of this kind *)
  or_mean_us : float;
  or_max_us : float;
  or_cost : cost;  (** summed decomposition over all of them *)
  or_side_msgs : int;  (** side-branch messages (invalidation fan-out &c.) *)
  or_side_cost : cost;  (** summed side-branch attribution *)
}

let op_order = [ Trace.Read; Write; Lock; Unlock; Barrier; Reduce ]

(* ------------------------------------------------------------------ *)
(* Canonical event folds shared by batch and streaming                  *)
(* ------------------------------------------------------------------ *)

(* End of network activity, folded from the event stream itself: the last
   link release (acks excluded, matching span-based traffic accounting),
   the last handler run, the last local handler. Folding events rather
   than span records sees every delivery of a retransmitted message, so
   batch and streaming agree on it by construction. *)
let end_time_events events =
  List.fold_left
    (fun acc e ->
      match e with
      | Trace.Link_xfer { finish; msg; _ } when msg >= 0 -> Float.max acc finish
      | Trace.Msg_deliver { handled; id; _ } when id >= 0 -> Float.max acc handled
      | Trace.Msg_send { inject; local = true; _ } -> Float.max acc inject
      | _ -> acc)
    0.0 events

(* Incremental per-window per-link byte attribution. Needs the run's end
   time up front to place window boundaries, so streaming uses it as a
   second pass (over the saved trace file or the replayed event list). *)
module Windows_fold = struct
  type t = { n : int; w : float; tables : (int, float) Hashtbl.t array }

  let create ~n ~t_end =
    if n <= 0 || t_end <= 0.0 then { n = 0; w = 0.0; tables = [||] }
    else
      {
        n;
        w = t_end /. float_of_int n;
        tables = Array.init n (fun _ -> Hashtbl.create 32);
      }

  let feed_xfer t ~link ~size ~start:s ~finish:f =
    if t.n > 0 && f > s then begin
      let rate = float_of_int size /. (f -. s) in
      let first = max 0 (int_of_float (s /. t.w))
      and last = min (t.n - 1) (int_of_float (f /. t.w)) in
      for i = first to last do
        let lo = Float.max s (float_of_int i *. t.w)
        and hi = Float.min f (float_of_int (i + 1) *. t.w) in
        if hi > lo then
          let prev =
            Option.value ~default:0.0 (Hashtbl.find_opt t.tables.(i) link)
          in
          Hashtbl.replace t.tables.(i) link (prev +. (rate *. (hi -. lo)))
      done
    end

  let feed t e =
    match e with
    | Trace.Link_xfer { link; msg; size; start; finish; _ } when msg >= 0 ->
        feed_xfer t ~link ~size ~start ~finish
    | _ -> ()

  let rows t =
    List.init t.n (fun i ->
        {
          w_start = float_of_int i *. t.w;
          w_finish = float_of_int (i + 1) *. t.w;
          w_link_bytes =
            List.sort compare
              (Hashtbl.fold (fun l b acc -> (l, b) :: acc) t.tables.(i) []);
        })
end

(* Mutable accumulator for the per-operation table and the whole-run
   critical path, fed one completed transaction at a time in completion
   (= stream emission) order. Both the batch summarizer and the streaming
   analyzer drive it, so their float sums see identical operand order. *)
module Txn_fold = struct
  type op_acc = {
    mutable oa_count : int;
    mutable oa_sum_dur : float;
    mutable oa_max_dur : float;
    mutable oa_cost : cost;
    mutable oa_side_msgs : int;
    mutable oa_side_cost : cost;
  }

  type node_acc = {
    mutable na_cost : cost;
    mutable na_end : float;  (* previous transaction's end on this node *)
    mutable na_txns : int;
  }

  type t = {
    ops : (Trace.dsm_op, op_acc) Hashtbl.t;
    nodes : (int, node_acc) Hashtbl.t;
    mutable n_txns : int;
    mutable best : (int * float) option;  (* (node, end): first strict max *)
  }

  let create () =
    { ops = Hashtbl.create 8; nodes = Hashtbl.create 64; n_txns = 0;
      best = None }

  let feed t ~node ~op ~t_start ~dur ~chain_cost ~side_msgs ~side_cost =
    t.n_txns <- t.n_txns + 1;
    let oa =
      match Hashtbl.find_opt t.ops op with
      | Some oa -> oa
      | None ->
          let oa =
            { oa_count = 0; oa_sum_dur = 0.0; oa_max_dur = 0.0;
              oa_cost = zero_cost; oa_side_msgs = 0; oa_side_cost = zero_cost }
          in
          Hashtbl.add t.ops op oa;
          oa
    in
    oa.oa_count <- oa.oa_count + 1;
    oa.oa_sum_dur <- oa.oa_sum_dur +. dur;
    oa.oa_max_dur <- Float.max oa.oa_max_dur dur;
    oa.oa_cost <- add_cost oa.oa_cost chain_cost;
    oa.oa_side_msgs <- oa.oa_side_msgs + side_msgs;
    oa.oa_side_cost <- add_cost oa.oa_side_cost side_cost;
    let na =
      match Hashtbl.find_opt t.nodes node with
      | Some na -> na
      | None ->
          let na = { na_cost = zero_cost; na_end = 0.0; na_txns = 0 } in
          Hashtbl.add t.nodes node na;
          na
    in
    (* The makespan is decided by the last-finishing processor; its
       timeline explains where the run's wall-clock went. Gaps between a
       node's transactions are application compute (cpu), then comes the
       blocking decomposition.
       Completion order per node equals start order (a node's fiber blocks
       on one transaction at a time), so no sort is needed. *)
    let gap = Float.max 0.0 (t_start -. na.na_end) in
    na.na_cost <-
      add_cost { na.na_cost with cpu_us = na.na_cost.cpu_us +. gap } chain_cost;
    na.na_end <- t_start +. dur;
    na.na_txns <- na.na_txns + 1;
    let e = t_start +. dur in
    match t.best with
    | Some (_, best_end) when e <= best_end -> ()
    | _ -> t.best <- Some (node, e)

  let op_rows t =
    List.filter_map
      (fun op ->
        Option.map
          (fun oa ->
            {
              or_op = op;
              or_count = oa.oa_count;
              or_mean_us = oa.oa_sum_dur /. float_of_int oa.oa_count;
              or_max_us = oa.oa_max_dur;
              or_cost = oa.oa_cost;
              or_side_msgs = oa.oa_side_msgs;
              or_side_cost = oa.oa_side_cost;
            })
          (Hashtbl.find_opt t.ops op))
      op_order

  let num_txns t = t.n_txns

  let critical t =
    Option.map
      (fun (node, e) ->
        let na = Hashtbl.find t.nodes node in
        (node, e, na.na_txns, na.na_cost))
      t.best
end

(* ------------------------------------------------------------------ *)
(* Run summary                                                          *)
(* ------------------------------------------------------------------ *)

type critical_summary = {
  sc_node : int;
  sc_end : float;
  sc_txns : int;
  sc_cost : cost;
}

type summary = {
  sm_num_txns : int;
  sm_num_msgs : int;
  sm_end_us : float;
  sm_critical : critical_summary option;
  sm_levels : level_row list;
  sm_top_links : link_row list;
  sm_windows : window list;
  sm_ops : op_row list;
}

(* Per-link totals folded in event-emission order — under faults a
   retransmission's crossings interleave with other messages', and the
   emission order is the one order batch and streaming naturally share. *)
let link_rows_events events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e with
      | Trace.Link_xfer { link; msg; size; start; finish; _ } when msg >= 0 ->
          let msgs, bytes, busy =
            Option.value ~default:(0, 0, 0.0) (Hashtbl.find_opt tbl link)
          in
          Hashtbl.replace tbl link
            (msgs + 1, bytes + size, busy +. (finish -. start))
      | _ -> ())
    events;
  Hashtbl.fold
    (fun link (msgs, bytes, busy) acc ->
      { lk_link = link; lk_msgs = msgs; lk_bytes = bytes; lk_busy_us = busy }
      :: acc)
    tbl []

let sort_top_links ~k rows =
  let rows =
    List.sort
      (fun a b ->
        match compare b.lk_bytes a.lk_bytes with
        | 0 -> compare a.lk_link b.lk_link
        | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < k) rows

(* The canonical batch analysis: full span tables in memory, folded in
   the same canonical orders the bounded-memory streaming analyzer uses
   (completion order for transactions, emission order for link traffic),
   so {!Streaming} reproduces it bit for bit. *)
let summarize ?(top_k = 10) ?(num_windows = 8) ov events =
  let spans = Spans.build events in
  let fold = Txn_fold.create () in
  List.iter
    (fun (t : Spans.txn) ->
      let sides = Spans.sides spans t in
      Txn_fold.feed fold ~node:t.Spans.t_node ~op:t.Spans.t_op
        ~t_start:t.Spans.t_start ~dur:t.Spans.t_dur
        ~chain_cost:(decompose ov spans t)
        ~side_msgs:(List.length sides) ~side_cost:(sides_cost ov sides))
    (Spans.txns_completed spans);
  let t_end = end_time_events events in
  let wf = Windows_fold.create ~n:num_windows ~t_end in
  List.iter (Windows_fold.feed wf) events;
  {
    sm_num_txns = Txn_fold.num_txns fold;
    sm_num_msgs = Spans.num_msgs spans;
    sm_end_us = t_end;
    sm_critical =
      Option.map
        (fun (node, e, n, cost) ->
          { sc_node = node; sc_end = e; sc_txns = n; sc_cost = cost })
        (Txn_fold.critical fold);
    sm_levels = level_profile spans;
    sm_top_links = sort_top_links ~k:top_k (link_rows_events events);
    sm_windows = Windows_fold.rows wf;
    sm_ops = Txn_fold.op_rows fold;
  }

(* ------------------------------------------------------------------ *)
(* Reports                                                              *)
(* ------------------------------------------------------------------ *)

let cost_json c =
  Json.Obj
    [
      ("startup_us", Json.Float c.startup_us);
      ("transfer_us", Json.Float c.transfer_us);
      ("queue_us", Json.Float c.queue_us);
      ("cpu_us", Json.Float c.cpu_us);
      ("total_us", Json.Float (total_cost c));
    ]

let level_row_json r =
  Json.Obj
    [
      ("level", Json.Int r.lv_level);
      ("msgs", Json.Int r.lv_msgs);
      ("bytes", Json.Int r.lv_bytes);
      ("local", Json.Int r.lv_local);
      ("crossings", Json.Int r.lv_crossings);
      ("link_bytes", Json.Int r.lv_link_bytes);
    ]

let link_row_json r =
  Json.Obj
    [
      ("link", Json.Int r.lk_link);
      ("msgs", Json.Int r.lk_msgs);
      ("bytes", Json.Int r.lk_bytes);
      ("busy_us", Json.Float r.lk_busy_us);
    ]

let window_json w =
  Json.Obj
    [
      ("start_us", Json.Float w.w_start);
      ("finish_us", Json.Float w.w_finish);
      ( "links",
        Json.List
          (List.map
             (fun (l, b) ->
               Json.Obj [ ("link", Json.Int l); ("bytes", Json.Float b) ])
             w.w_link_bytes) );
    ]

let op_row_json r =
  Json.Obj
    [
      ("op", Json.String (op_name r.or_op));
      ("count", Json.Int r.or_count);
      ("mean_us", Json.Float r.or_mean_us);
      ("max_us", Json.Float r.or_max_us);
      ("cost", cost_json r.or_cost);
      ("side_msgs", Json.Int r.or_side_msgs);
      ("side_cost", cost_json r.or_side_cost);
    ]

let summary_to_json ?(meta = []) s =
  let critical =
    match s.sm_critical with
    | None -> Json.Null
    | Some c ->
        Json.Obj
          [
            ("node", Json.Int c.sc_node);
            ("end_us", Json.Float c.sc_end);
            ("txns", Json.Int c.sc_txns);
            ("cost", cost_json c.sc_cost);
          ]
  in
  Json.Obj
    (meta
    @ [
        ("num_txns", Json.Int s.sm_num_txns);
        ("num_msgs", Json.Int s.sm_num_msgs);
        ("end_us", Json.Float s.sm_end_us);
        ("critical_path", critical);
        ("levels", Json.List (List.map level_row_json s.sm_levels));
        ("top_links", Json.List (List.map link_row_json s.sm_top_links));
        ("windows", Json.List (List.map window_json s.sm_windows));
        ("ops", Json.List (List.map op_row_json s.sm_ops));
      ])

let pct part whole = if whole <= 0.0 then 0.0 else 100.0 *. part /. whole

let render_cost c =
  let t = total_cost c in
  Printf.sprintf
    "startup %.0f us (%.1f%%) | transfer %.0f us (%.1f%%) | queue %.0f us (%.1f%%) | cpu %.0f us (%.1f%%)"
    c.startup_us (pct c.startup_us t) c.transfer_us (pct c.transfer_us t)
    c.queue_us (pct c.queue_us t) c.cpu_us (pct c.cpu_us t)

let render_sections b ~levels ~links ~ops =
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  if levels <> [] then begin
    pf "\ntraffic by access-tree level (-1 = untagged):\n";
    pf "  %5s %8s %12s %7s %10s %12s\n" "level" "msgs" "bytes" "local"
      "crossings" "link-bytes";
    List.iter
      (fun r ->
        pf "  %5d %8d %12d %7d %10d %12d\n" r.lv_level r.lv_msgs r.lv_bytes
          r.lv_local r.lv_crossings r.lv_link_bytes)
      levels
  end;
  if links <> [] then begin
    pf "\ntop %d congested directed links:\n" (List.length links);
    pf "  %6s %8s %12s %12s\n" "link" "msgs" "bytes" "busy-us";
    List.iter
      (fun r ->
        pf "  %6d %8d %12d %12.0f\n" r.lk_link r.lk_msgs r.lk_bytes
          r.lk_busy_us)
      links
  end;
  if ops <> [] then begin
    pf "\nper-operation cost decomposition (miss path):\n";
    pf "  %-8s %7s %10s %10s   %s\n" "op" "count" "mean-us" "max-us"
      "cost decomposition";
    List.iter
      (fun r ->
        pf "  %-8s %7d %10.0f %10.0f   %s\n" (op_name r.or_op) r.or_count
          r.or_mean_us r.or_max_us (render_cost r.or_cost);
        if r.or_side_msgs > 0 then
          pf "  %-8s %7s side branches: %d msgs, %s\n" "" "" r.or_side_msgs
            (render_cost r.or_side_cost))
      ops
  end

let render_summary s =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "transactions: %d   messages: %d\n" s.sm_num_txns s.sm_num_msgs;
  (match s.sm_critical with
  | None -> pf "critical path: (no transactions)\n"
  | Some c ->
      pf "critical path: node %d, makespan %.0f us over %d transactions\n"
        c.sc_node c.sc_end c.sc_txns;
      pf "  %s\n" (render_cost c.sc_cost));
  render_sections b ~levels:s.sm_levels ~links:s.sm_top_links ~ops:s.sm_ops;
  Buffer.contents b
