(** Simulated mesh network with per-node CPUs and cooperative fibers.

    Every simulated processor has (a) a CPU whose time is consumed by
    message startups, receive overheads and application computation, and
    (b) at most one application {e fiber} — a cooperative thread written in
    direct style using OCaml effects, which can block on network events —
    plus event-driven message handlers used by protocol layers.

    Message timing follows an eager wormhole approximation: a message
    occupies every directed link of its dimension-order route for
    [size / bandwidth], pipelined hop to hop with [hop_latency] for the
    header, and queues when a link is busy. A message between access-tree
    nodes simulated by the same processor never enters the network (it
    costs only [local_overhead] CPU time and is not counted as a startup
    or as congestion). *)

type payload = ..
(** Protocol layers and applications extend this with their message types. *)

type payload += Empty

type msg = {
  m_src : Diva_mesh.Mesh.node;
  m_dst : Diva_mesh.Mesh.node;
  m_size : int;
  m_tag : int;  (** selective-receive key set by [send ~tag]; [-1] = untagged *)
  m_payload : payload;
}
(** A delivered message. It is built when its delivery is dispatched, as
    a fresh immutable record, and nothing in the network refers to it
    afterwards: handlers and mailboxes may keep it for as long as they
    like. *)

type t

val create :
  ?machine:Machine.t -> ?seed:int -> rows:int -> cols:int -> unit -> t

val create_nd : ?machine:Machine.t -> ?seed:int -> dims:int array -> unit -> t
(** A mesh of arbitrary dimension (the theory paper's general setting). *)

val mesh : t -> Diva_mesh.Mesh.t
val sim : t -> Sim.t
val machine : t -> Machine.t
val rng : t -> Diva_util.Prng.t
(** Root PRNG of the run; layers derive sub-streams with [Prng.split]. *)

val now : t -> float
val num_nodes : t -> int

(** {2 Messaging} *)

val send :
  t ->
  ?tag:int ->
  src:Diva_mesh.Mesh.node ->
  dst:Diva_mesh.Mesh.node ->
  size:int ->
  payload ->
  unit
(** Asynchronous send; charges the sender's CPU with the startup overhead,
    routes the message, charges the receiver's overhead, then invokes the
    destination handler. Callable from fibers and handlers alike. [tag]
    (default [-1], untagged; tags must be [>= 0]) keys the receiver's
    selective receive — see {!recv}. Tags survive the reliable-delivery
    envelope under fault injection. The send's own work counts as
    [Prof.Protocol] in the attribution cell ({!Sim.cell}), and the
    caller's subsystem is restored on return.

    Until its delivery, a message lives in a {e delivery slot}: one entry
    of the network's recycled pool (source, destination, size, tag, causal
    id and transaction, payload, kept as a struct of arrays in pages of
    256 slots that are added as needed and never moved), with one prebuilt
    {!Sim.event} per slot. A pending delivery therefore allocates nothing
    of its own. The slot is taken at the send (and at every
    retransmission and ack under faults), released when its event runs —
    just before the {!msg} is built and handed on — or when the
    transmission is lost. *)

val set_handler : t -> Diva_mesh.Mesh.node -> (t -> msg -> unit) -> unit
(** Replace the node's message handler. The default handler enqueues into
    the node's mailbox (see {!recv}). *)

val recv :
  t -> Diva_mesh.Mesh.node -> ?where:(msg -> bool) -> ?tag:int -> unit -> msg
(** Blocking receive from the node's mailbox (fiber context only; requires
    the default handler). Returns the oldest matching message.
    [~tag:k] matches messages sent with [send ~tag:k] and is O(1)
    amortized (per-tag index); [~where] scans arrival order with an
    arbitrary predicate. The two are mutually exclusive
    ([Invalid_argument] otherwise); with neither, the oldest message of
    any kind is returned. *)

val mailbox_deliver : t -> msg -> unit
(** The default handler: enqueue into the destination's mailbox. Custom
    handlers call this for payloads they do not recognise. *)

(** {2 Fibers} *)

val spawn : t -> Diva_mesh.Mesh.node -> (unit -> unit) -> unit
(** Start the node's application fiber at the current simulation time. *)

val suspend : ((('a -> unit)) -> unit) -> 'a
(** [suspend register] blocks the current fiber; [register resume] is called
    immediately and must arrange for [resume v] to be called exactly once,
    from an event callback, which continues the fiber with [v]. *)

val compute : t -> Diva_mesh.Mesh.node -> float -> unit
(** Occupy the node's CPU for the given time (blocks the fiber). *)

val charge : t -> Diva_mesh.Mesh.node -> float -> unit
(** Accumulate local computation without a scheduler round-trip; the pending
    amount is folded into the next {!flush_charge} / {!compute}. Used for
    cache-hit accesses, which are far too frequent for one event each. *)

val flush_charge : t -> Diva_mesh.Mesh.node -> unit
(** Block the fiber until all pending charged computation has elapsed. *)

val live_fibers : t -> int

val run : t -> unit
(** Run the simulation to completion. Raises [Failure] if fibers are still
    blocked when the event queue drains (deadlock). *)

(** {2 Statistics} *)

val stats : t -> Link_stats.t
val startups : t -> int
(** Total number of message startups (local messages excluded). *)

val node_startups : t -> Diva_mesh.Mesh.node -> int
val compute_time : t -> Diva_mesh.Mesh.node -> float
(** Total application computation time charged to the node so far. *)

val max_compute_time : t -> float
val total_compute_time : t -> float

val compute_times : t -> float array
(** Copy of all per-node computation times (phase snapshots). *)

(** {2 Observability}

    The network owns one {!Diva_obs.Trace.sink} (the disabled
    {!Diva_obs.Trace.null} by default) into which it emits message and
    per-link occupancy events; protocol layers above share the same sink
    via {!trace}. Tracing and metrics sampling only append to in-memory
    buffers, so an instrumented run is bit-identical to a bare one. *)

val trace : t -> Diva_obs.Trace.sink
val set_trace : t -> Diva_obs.Trace.sink -> unit

(** {2 Causal context}

    Every message carries a unique id, the id of the message whose handler
    issued it ([parent]) and the DSM transaction it serves ([txn]); the
    trio appears on every {!Diva_obs.Trace} message event, turning the
    flat event stream into per-transaction span trees
    ({!Diva_obs.Spans}). The context is maintained unconditionally but
    read only by tracing, so traced runs stay bit-identical to untraced
    ones. *)

val fresh_txn : t -> int
(** Allocate a new DSM transaction id (monotone from 0). Called once per
    blocking shared-memory operation. *)

val set_txn : t -> int -> unit
(** Set the current causal transaction: subsequent sends (until the next
    handler dispatch ends or the context is reset) are tagged with it.
    Protocol layers use this when dequeuing a parked operation, so its
    messages are attributed to the operation that queued them. *)

val cur_txn : t -> int
(** The transaction whose extent we are in; [-1] at top level. *)

val cur_msg : t -> int
(** The id of the message whose handler is executing; [-1] at top level.
    A fiber resumed from inside a handler reads this right after waking to
    learn which message completed its blocking operation. *)

val tag_level : t -> int -> unit
(** Tag the next {!send} with an access-tree level (one-shot; reset by the
    send). Purely observational. *)

val attach_metrics : t -> ?interval:float -> Diva_obs.Metrics.t -> unit
(** Register the standard gauges (link congestion and load, busy links and
    CPUs, startups, accumulated compute, live fibers — plus lost messages,
    retransmits and pending envelopes when faults are installed) on the
    registry and sample them every [interval] simulated microseconds
    (default 1000) while the simulation runs. Sample timestamps are the
    exact boundaries [interval], [2*interval], ...; values reflect the
    state after the last event before each boundary. *)

val attach_prof : t -> Diva_obs.Prof.t -> unit
(** Install a self-profiler: make it sample this network's attribution
    cell ({!Sim.cell}), arm the statistical subsystem sampler, and drive
    the profiler's window series from the (observe-only) advance hook —
    one row per [Prof.window_us] of simulated time. The event loop and
    the protocol layers write the cell whether or not a profiler is
    attached, so attaching works before or after a DSM is created. A
    profiled run is byte-identical to an unprofiled one. *)

val prof : t -> Diva_obs.Prof.t option

val attach_flight : t -> ?interval:float -> Diva_obs.Flight.t -> unit
(** Take a flight-recorder health snapshot (sim time, events executed and
    pending, live fibers, in-flight envelopes, watchdog trips) every
    [interval] simulated microseconds (default 5000). The event ring is
    fed by wrapping the trace sink ({!Diva_obs.Flight.wrap}) before it is
    installed; this only attaches the periodic snapshots. *)

(** {2 Fault injection}

    With a fault schedule installed (see {!Diva_faults}), remote sends are
    wrapped in a reliable-delivery envelope: each message carries a
    sequence number, is acknowledged by the receiver, and retransmits on
    an exponential-backoff timer ([rto_us * 2^min(attempt, 6)]) until the
    ack arrives. Duplicates created by retransmission are filtered by a
    receiver-side seen-set, so handlers still observe each payload exactly
    once. Link slowdowns stretch per-link occupancy; outages, crash
    windows and probabilistic drops lose individual transmissions (traced
    as [Msg_lost]); node pause/crash windows defer all CPU activity to the
    window end.

    Installing {!Diva_faults.Schedule.empty} is a no-op: the run stays
    bit-identical to an uninstrumented one, envelope and all. *)

val set_faults : t -> Diva_faults.Faults.t -> unit
(** Install a fault injector. Must be called before any traffic (and
    before {!attach_metrics} if fault gauges are wanted); at most one
    active injector per network, or [Invalid_argument]. *)

val faults : t -> Diva_faults.Faults.t option
(** The installed injector, if any ([None] for empty schedules). *)

val nudge : t -> src:Diva_mesh.Mesh.node -> unit
(** Retransmit every unacknowledged envelope originated by [src] now, in
    sequence order, resetting their backoff. No-op without faults. Used by
    the DSM watchdog to unblock transactions that have waited longer than
    the schedule's patience. *)
