(** Record a run's DSM access stream and replay it against any strategy,
    mesh embedding, or seed.

    A record is a [diva-event-trace] file ({!Diva_obs.Streaming}). The
    one [--record] writes holds only the header plus the
    {!Diva_obs.Trace.Var_decl} and {!Diva_obs.Trace.Dsm_access} lines,
    streamed as the run emits them; its header is marked DSM-only
    ({!Diva_obs.Streaming.mark_dsm_only}). A full [--events] trace replays
    just as well: replay takes the mesh and seed from the header and the
    declarations and operations from the event lines, ignoring the rest.

    Each processor's fiber re-issues its recorded operations in program
    order through the {!Diva_core.Dsm} façade, so the full protocol
    (caching, combining, invalidation, locks, barriers) runs again:

    - {b Closed loop}: each operation is issued the moment the previous
      one completes — as fast as the protocol allows. Replaying a trace
      closed-loop under the {e recording} strategy and seed reproduces a
      computation-free run (e.g. matmul measured as in the paper)
      bit for bit.
    - {b Open loop}: the recorded inter-operation gaps (think/compute
      time of the original application) are re-inserted as local
      computation, so the offered load keeps the recorded temporal shape
      even when the strategy under test changes the per-op latencies.

    Reduce operations are re-issued as all-reduces of the recorded wire
    size with a trivial combiner; distinct reducers of equal size are
    collapsed (payload values are not part of the timing model, reducer
    identity only matters when two same-size reductions overlap). *)

type decl = { d_var : int; d_name : string; d_size : int; d_owner : int }

type op = {
  o_proc : int;
  o_op : Diva_obs.Trace.dsm_op;
  o_var : int;  (** [-1] for barrier / reduce *)
  o_size : int;
  o_ts : float;  (** issue time, simulated microseconds *)
  o_dur : float;  (** blocking latency *)
}

type recording = {
  dims : int array;
  seed : int;  (** network seed of the recorded run *)
  decls : decl list;  (** in variable-id (creation) order *)
  ops : op list;  (** in completion order (per-processor program order) *)
}

val of_events :
  dims:int array -> seed:int -> Diva_obs.Trace.event list -> recording
(** Project the DSM events out of an in-memory event stream. *)

val read : string -> (recording, string) result
(** Read a record or a full event trace, one line at a time. Errors name
    the file and, for a bad body line, the line number. *)

(** {2 Recording} *)

type recorder

val recorder : out_channel -> Diva_obs.Streaming.header -> recorder
(** Write the header, marked DSM-only, now. The caller closes the channel
    after the run. *)

val record : recorder -> Diva_obs.Trace.event -> unit
(** Write the event as one line if it is a [Var_decl] or [Dsm_access];
    drop anything else. Costs O(1) memory. *)

val recorded_ops : recorder -> int
val recorded_vars : recorder -> int

(** {2 Replay} *)

type mode = Closed_loop | Open_loop

val mode_name : mode -> string

val run :
  ?obs:Diva_harness.Runner.obs ->
  ?on_net:(Diva_simnet.Network.t -> unit) ->
  ?seed:int ->
  ?mode:mode ->
  strategy:Diva_core.Dsm.strategy ->
  recording ->
  Generator.result
(** Defaults: the recording's network seed and [Closed_loop]. The mesh
    dimensions always come from the recording (the access stream is only
    meaningful on its recorded processor count). *)
