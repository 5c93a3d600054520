(** Critical-path extraction and cost attribution over span trees.

    The paper explains the access-tree strategy's win by splitting
    execution time into per-message startup, raw transfer time, and
    congestion-induced queueing; this module makes that decomposition
    measurable per run. Machine overhead constants are passed in as
    {!overheads} ([Diva_obs] sits below the simulator and cannot read
    [Diva_simnet.Machine]). *)

type overheads = {
  send_overhead : float;
  recv_overhead : float;
  local_overhead : float;
}

type cost = {
  startup_us : float;  (** send/receive per-message overheads *)
  transfer_us : float;  (** time some link on the path was moving the data *)
  queue_us : float;
      (** waiting: CPU contention, link contention, header propagation *)
  cpu_us : float;  (** local handler cost and application compute *)
}

val zero_cost : cost
val add_cost : cost -> cost -> cost
val total_cost : cost -> float

val op_name : Trace.dsm_op -> string

(** Strategy-neutral view of one completing-chain message, detached from
    where the records live (full {!Spans} tables or a streaming analyzer's
    retained prefix). *)
type chain_link = {
  cl_local : bool;
  cl_inject : float;
  cl_handled : float option;
  cl_xfers : float array;
      (** link crossings as interleaved start, finish pairs, arrival order *)
}

val chain_link_of_msg : Spans.msg -> chain_link

val decompose_chain :
  overheads -> t0:float -> dur:float -> chain_link list -> cost
(** Core of {!decompose}: sweep the chain's labeled segments over the
    blocking window [\[t0, t0 +. dur\]]. Clipping makes the result
    insensitive to link crossings emitted after the completion event, so a
    streaming analyzer that retires transactions eagerly computes the same
    cost bit for bit.

    Each elementary interval [\[a, b\]] between sorted, de-duplicated
    segment endpoints is labeled by the segments active at
    [mid = (a +. b) /. 2.0], i.e. those with [x <= mid < y]. One cursor
    walks all endpoints in time order and, while the next one is
    [<= mid], counts its label up at a start and down at a finish. Every
    segment has [x < y] and the midpoints never decrease, so each count is
    [#{x <= mid} - #{y <= mid} = #{x <= mid < y}], and a chain of [s]
    segments costs one O(s log s) sort plus a linear sweep. [mid] is kept,
    not replaced by [x <= a && y >= b], because the two differ when
    [(a +. b) /. 2.0] rounds up to [b] on adjacent floats. *)

val side_cost : overheads -> Spans.side -> cost
(** Attribution of one side-branch message (e.g. an invalidation fan-out
    hop the write triggered but did not block on) from its at-completion
    snapshot: overheads as startup, link occupancy as transfer, local
    handler cost as cpu, issue-to-injection dead time as queue. *)

val sides_cost : overheads -> Spans.side list -> cost
(** [side_cost] summed in list order. *)

val decompose : overheads -> Spans.t -> Spans.txn -> cost
(** Decompose one transaction's blocking latency along its completing
    causal chain ({!Spans.chain}). Every term is non-negative (up to float
    rounding) and the four sum exactly to [t_dur]: the labeled segments —
    overheads as startup, link occupancy as transfer, local handler cost as
    cpu — are clipped to the blocking window and measured as a union with
    precedence startup > transfer > cpu; the uncovered remainder is
    queueing. *)

type level_row = {
  lv_level : int;  (** access-tree depth; -1 collects untagged traffic *)
  lv_msgs : int;
  lv_bytes : int;
  lv_local : int;  (** how many of the messages were same-processor hops *)
  lv_crossings : int;  (** directed-link crossings *)
  lv_link_bytes : int;  (** bytes weighted by links crossed *)
}

val level_profile : Spans.t -> level_row list
(** Traffic grouped by the access-tree level of the destination protocol
    node, ascending level. Shows the paper's locality effect: most tree
    traffic should sit at deep (cheap, short-distance) levels. *)

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

(** {2 Canonical event folds (shared by batch and streaming)} *)

val end_time_events : Trace.event list -> float
(** End of network activity folded from the events themselves: last link
    release (acks excluded), last handler run, last local handler. Unlike
    span records, the events see every delivery of a retransmitted
    message, so batch and streaming agree by construction. *)

(** Incremental per-window per-link byte attribution: the run is split
    into [n] equal time windows and each link occupancy's bytes are
    attributed proportionally to the windows it overlaps — the data behind
    time-lapse congestion heatmaps. Window boundaries need the run's end
    time up front, so {!Streaming} retains each crossing as four scalars
    during its single pass and replays them through this fold at
    finalize. *)
val max_windows : int
(** Largest window count {!Windows_fold.create} (and so {!summarize} and
    [Streaming.create]) accepts: 4096. Each window owns a table allocated
    up front. *)

module Windows_fold : sig
  type t

  val create : n:int -> t_end:float -> t
  (** Inert (produces no rows) when [n <= 0] or [t_end <= 0.].
      @raise Invalid_argument when [n > max_windows]. *)

  val feed : t -> Trace.event -> unit
  (** Feed one event; only non-ack link crossings contribute. *)

  val feed_xfer :
    t -> link:int -> size:int -> start:float -> finish:float -> unit
  (** Feed one already-extracted link crossing — what {!feed} does for a
      [Link_xfer] event. Zero-length crossings ([finish <= start]) are
      ignored. *)

  val rows : t -> window list
end

(** Accumulator for the per-operation table and whole-run critical path,
    fed one completed transaction at a time in completion (= stream
    emission) order. Batch ({!summarize}) and streaming ({!Streaming})
    both drive it, so their float sums see identical operand order. *)
module Txn_fold : sig
  type t

  val create : unit -> t

  val feed :
    t ->
    node:int ->
    op:Trace.dsm_op ->
    t_start:float ->
    dur:float ->
    chain_cost:cost ->
    side_msgs:int ->
    side_cost:cost ->
    unit

  val num_txns : t -> int
  val op_rows : t -> op_row list

  val critical : t -> (int * float * int * cost) option
  (** [(node, end, txns, cost)] of the last-finishing processor (first
      strict maximum in feed order); [None] before any feed. *)
end

val link_rows_events : Trace.event list -> link_row list
(** Per-link totals folded in event-emission order (the order batch and
    streaming share); ack crossings ([msg = -1]) excluded. Unordered. *)

val sort_top_links : k:int -> link_row list -> link_row list
(** Descending bytes, ties by ascending link id, truncated to [k]. *)

(** {2 Run summary} *)

type critical_summary = {
  sc_node : int;
  sc_end : float;
  sc_txns : int;
  sc_cost : cost;
}

(** Everything [divasim analyze] reports, as one value. Produced
    identically — bit for bit, floats included — by batch {!summarize}
    and by the bounded-memory {!Streaming} analyzer. *)
type summary = {
  sm_num_txns : int;
  sm_num_msgs : int;
  sm_end_us : float;  (** {!end_time_events}: the windows' time basis *)
  sm_critical : critical_summary option;
  sm_levels : level_row list;
  sm_top_links : link_row list;
  sm_windows : window list;
  sm_ops : op_row list;
}

val summarize :
  ?top_k:int -> ?num_windows:int -> overheads -> Trace.event list -> summary
(** The canonical batch analysis: full span tables in memory, folded in
    the canonical orders above. *)

val cost_json : cost -> Json.t

val summary_to_json : ?meta:(string * Json.t) list -> summary -> Json.t
(** The machine-readable [analysis.json] payload. [meta] entries are
    prepended to the object. *)

val render_cost : cost -> string

val render_summary : summary -> string
(** Human-readable report (the [divasim analyze] stdout). *)
