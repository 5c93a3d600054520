(** Discrete-event simulation core: a virtual clock (in microseconds) and an
    event queue. Events scheduled for the same instant execute in FIFO
    order, so runs are deterministic. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time in microseconds. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t at f] runs [f] at simulated time [at]. [at] must not be in
    the past. *)

val schedule_now : t -> (unit -> unit) -> unit

val schedule_call : t -> float -> ('a -> unit) -> 'a -> unit
(** [schedule_call t at f x] runs [f x] at simulated time [at]. Equivalent
    to [schedule t at (fun () -> f x)] but avoids allocating a closure when
    [f] is a statically-known function: hot schedule sites pass one shared
    function plus a packed argument instead of a fresh environment. *)

val schedule_call_now : t -> ('a -> unit) -> 'a -> unit

val run : t -> unit
(** Execute events until the queue is empty. *)

val add_advance_hook : t -> (float -> float -> unit) -> unit
(** [add_advance_hook t h] makes {!run} call [h old_clock new_clock] just
    before the clock jumps forward (strictly), i.e. between the events of
    two distinct instants. The hook must only observe state — it must not
    schedule events or mutate the simulation — so that an instrumented run
    is indistinguishable from a bare one. Hooks compose with those already
    installed; since they only observe, their relative order is
    unspecified. Lets the metrics sampler, the profiler's window series
    and the flight recorder's health snapshots share the slot. *)

val cell : t -> Diva_obs.Prof.cell
(** This simulation's attribution cell. {!run} writes [Event_loop] and
    [Dispatch] into it on every event; deeper layers refine it while an
    event runs; an attached profiler samples it
    ({!Diva_obs.Prof.watch}). *)

val events_executed : t -> int

val pending : t -> int
(** Number of events still queued. *)
