(** Structured trace-event stream of one simulation run.

    Every layer of the simulator emits semantic events into a {!sink}: the
    network records message sends, per-link occupancy intervals and
    deliveries; the DSM layer records read/write/lock/barrier transactions
    (with hit/miss and latency) and copy-set changes tagged with the
    access-tree node and its level. Timestamps are simulated microseconds.

    Tracing never perturbs the simulation: emission only appends to an
    in-memory buffer, so a traced run is bit-identical to an untraced one.
    The {!null} sink is disabled; instrumentation sites guard event
    construction with {!enabled}, making the disabled path a single load
    and branch (no allocation). *)

type dsm_op = Read | Write | Lock | Unlock | Barrier | Reduce

type drop_reason =
  | Invalidated  (** removed by a write's invalidation wave *)
  | Evicted  (** removed by LRU replacement under bounded memory *)

type loss_reason =
  | Loss_random  (** probabilistic message drop (fault schedule) *)
  | Loss_link_down  (** the route crossed a link during an outage window *)
  | Loss_crashed  (** the destination was inside a crash-stop window *)

type event =
  | Msg_send of {
      ts : float;  (** time the send was issued *)
      id : int;  (** unique message id, monotone in issue order *)
      parent : int;
          (** id of the message whose handler issued this send; [-1] when
              issued from a fiber (or a timer). Since handlers execute
              instantaneously in simulated time, [ts] equals the parent's
              [handled] time — causal chains are contiguous. *)
      txn : int;
          (** causal DSM transaction this message serves; [-1] outside any
              transaction (hand-optimized apps, acks). The id is threaded
              through every protocol hop, combining park and
              retransmission the message spawns. *)
      inject : float;
          (** when the message actually enters the network: issue time plus
              CPU queueing plus the send startup overhead. For [local]
              messages, the time the destination handler runs (after
              [local_overhead]). *)
      level : int;
          (** access-tree depth of the destination tree node (root 0) for
              tree-protocol and combining-tree traffic; [-1] otherwise. *)
      src : int;
      dst : int;
      size : int;
      local : bool;
    }
      (** A message send was issued at [ts]. [local] messages never occupy
          links. *)
  | Msg_deliver of {
      ts : float;
      id : int;  (** matches the {!Msg_send} with the same id *)
      txn : int;
      handled : float;
          (** when the destination handler actually ran: [ts] plus CPU
              queueing plus the receive overhead (equals [ts] for
              hardware-level acks, which cost no CPU). *)
      src : int;
      dst : int;
      size : int;
    }
      (** The message's tail arrived at the destination at [ts]. Under
          faults a retransmitted message can be delivered more than once
          (span builders keep the first). *)
  | Link_xfer of {
      start : float;
      finish : float;
      link : int;
      msg : int;
          (** id of the {!Msg_send} occupying the link; [-1] for acks
              (which have no send of their own) *)
      txn : int;
      level : int;
          (** access-tree level tag of the originating send (see
              {!Msg_send}); retransmissions keep the original's level.
              Makes per-level traffic folds self-contained in the event
              stream. *)
      src : int;
      dst : int;
      size : int;
    }
      (** One directed link was occupied by the message for
          [start, finish). Exactly one event per link crossing — per-link
          aggregation of these reproduces {!Diva_simnet.Link_stats}. *)
  | Var_decl of {
      ts : float;
      var : int;
      var_name : string;
      size : int;  (** payload size in bytes *)
      owner : int;  (** processor holding the initial (only) copy *)
    }
      (** A global variable was declared ([Dsm.create_var]). Together with
          {!Dsm_access} this makes the event stream a complete, replayable
          record of a run's shared-memory behaviour. *)
  | Dsm_access of {
      ts : float;
      dur : float;
      node : int;
      var : int;  (** variable id; [-1] for variable-less ops (barriers) *)
      var_name : string;
      op : dsm_op;
      size : int;
          (** payload size in bytes: the variable's size for data ops, the
              reducer's wire size for {!Reduce}, 0 for {!Barrier} *)
      hit : bool;  (** completed from the local copy, no transaction *)
      txn : int;
          (** causal transaction id shared with the protocol messages this
              operation spawned; [-1] for read/write hits (no messages). *)
      completed_by : int;
          (** id of the message whose handler unblocked the fiber; [-1]
              for hits and synchronously-completed operations. Walking its
              [parent] chain backwards yields the transaction's critical
              path (see {!Diva_obs.Analysis}). *)
    }
      (** One shared-memory operation issued by [node]'s fiber: [ts] is the
          issue time, [dur] the blocking latency (0 for hits). *)
  | Copy_add of {
      ts : float;
      node : int;
      var : int;
      var_name : string;
      tnode : int;  (** access-tree node id; [-1] under a home-based strategy *)
      level : int;  (** tree depth of [tnode] (root 0); [-1] if no tree *)
    }
  | Copy_drop of {
      ts : float;
      node : int;
      var : int;
      var_name : string;
      tnode : int;
      level : int;
      reason : drop_reason;
    }
  | Remap of {
      ts : float;
      var : int;
      var_name : string;
      tnode : int;
      level : int;
      from_node : int;
      to_node : int;
    }
      (** FOCS'97 variant: tree node [tnode] migrated to a fresh random
          processor of its submesh. Also records an adaptive home
          migrating from [from_node] to [to_node]; [tnode] and [level]
          are then [-1]. *)
  | Msg_lost of {
      ts : float;
      msg : int;  (** id of the lost {!Msg_send} ([-1] for acks) *)
      txn : int;
      src : int;
      dst : int;
      size : int;
      reason : loss_reason;
    }
      (** A physical transmission was lost to an injected fault at [ts]
          (see {!Diva_faults}); the reliable envelope retransmits it. *)
  | Msg_retry of {
      ts : float;
      msg : int;  (** id of the retransmitted {!Msg_send} *)
      txn : int;
      src : int;
      dst : int;
      size : int;
      attempt : int;
    }
      (** The reliable envelope retransmitted an unacknowledged message;
          [attempt] is 1 for the first retransmission. *)

val timestamp : event -> float
(** Primary timestamp of the event ([start] for {!Link_xfer}). *)

type sink

val null : sink
(** The shared disabled sink; {!emit} on it is a no-op. *)

val create : unit -> sink
(** A fresh enabled sink with an empty buffer. *)

val stream : (event -> unit) -> sink
(** An enabled sink that forwards every event to the callback instead of
    buffering: {!events} returns [[]], memory stays O(1) no matter how
    long the run. The backbone of streaming analysis and on-disk trace
    recording (see {!Streaming}). *)

val enabled : sink -> bool
(** Instrumentation sites test this before constructing an event. *)

val emit : sink -> event -> unit
(** Append and/or forward; ignored on a disabled sink. Events may be
    emitted out of timestamp order (a send emits its delivery event
    eagerly); exporters sort. Emission-order sim-time is nondecreasing —
    analyzers rely on this (e.g. [Dsm_access] events arrive in completion
    order). *)

val count : sink -> int
(** Events emitted so far (buffered or streamed). *)

val events : sink -> event list
(** Buffered events in emission order; [[]] for {!stream} sinks. *)

val with_listener : sink -> (event -> unit) -> sink
(** [with_listener s f] is a sink that behaves like [s] (same buffering,
    same downstream callback) except that [f] also observes every event,
    and that it is always enabled — wrapping {!null} yields a
    listener-only sink. The result {e replaces} [s]: it has its own
    buffer, so keep only the wrapped value. Used by the flight recorder
    to ride along any existing sink configuration. *)

(** {2 JSONL event codec}

    One compact JSON object per event, discriminated by the ["e"] tag,
    with a fixed field order so the writer is byte-stable. The reader and
    the versioned file header live in {!Streaming}. *)

val op_code : dsm_op -> string
val op_of_code : string -> dsm_op option
val drop_code : drop_reason -> string
val drop_of_code : string -> drop_reason option
val loss_code : loss_reason -> string
val loss_of_code : string -> loss_reason option

val event_to_json : event -> Json.t

val write_event : out_channel -> event -> unit
(** Write one event as a single JSON line. *)
