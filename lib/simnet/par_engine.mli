(** Conservative, windowed, domain-sharded discrete-event engine.

    The model is split into a fixed number of {e logical shards}, chosen
    by the model (e.g. one per mesh row) and independent of the number of
    executing domains. Each shard owns a serial event queue and clock.
    Cross-shard events must respect the engine's [lookahead] — the
    minimum model latency between shards (for a mesh: one hop) — and are
    buffered in per-(source, destination) outboxes, drained at window
    barriers in ascending source-shard order.

    Because shard count, in-window execution order, outbox drain order and
    window boundaries are all functions of model state alone, a run is
    {b bit-identical for every domain count}, including 1. Domains only
    decide which OS thread executes each shard's deterministic work;
    [run ~domains:1] uses the calling domain and spawns nothing.

    The handler receives a {!ctx} naming the current shard and time. From
    the handler:
    - {!ctx_schedule} targets the {e current} shard at any [at >= now];
    - {!ctx_post} targets any shard, at [at >= now + lookahead] (same
      shard degenerates to [ctx_schedule], no lookahead needed).

    Handlers must not raise for control flow: an escaping exception aborts
    the run (it is re-raised on the calling domain after every executing
    domain has been joined). *)

type 'a t
(** An engine whose events carry messages of type ['a]. *)

type 'a ctx
(** Execution context passed to the handler: current shard + clock. *)

val create : shards:int -> lookahead:float -> 'a t
(** [create ~shards ~lookahead] with [shards >= 1], [lookahead > 0]. *)

val num_shards : _ t -> int
val lookahead : _ t -> float

val schedule_init : 'a t -> shard:int -> at:float -> 'a -> unit
(** Seed an event before {!run}. [at >= 0]. *)

type telemetry
(** Per-domain wall-clock accounting of one {!run}: busy time (event
    execution + outbox drains), barrier-wait time, events per domain,
    window count, and per-shard event totals. Recording reads the wall
    clock only — nothing in the model observes it — so a telemetered run
    is byte-identical to a bare one for every domain count. *)

val telemetry_create : unit -> telemetry
(** A fresh accumulator; pass it to {!run}, then read it back with
    {!telemetry_json}. Reusing one across runs overwrites it. *)

val telemetry_json : telemetry -> Diva_obs.Json.t
(** [{ "domains", "windows", "wall_s", "stall_frac", "shard_imbalance",
    "domains_detail": [{ "busy_s", "barrier_s", "events" }, ...],
    "shard_events" }]. [stall_frac] is total barrier wait over total
    accounted time; [shard_imbalance] is the busiest shard's event count
    over the mean (1.0 = perfectly balanced decomposition). Embed it in a
    profile via [Diva_obs.Prof.set_par]. *)

val run :
  ?domains:int -> ?telemetry:telemetry -> 'a t ->
  handler:('a ctx -> 'a -> unit) -> unit
(** Execute until every queue and outbox is empty. [domains] defaults to
    1 and is clamped to [1 .. num_shards]. Each domain reads the wall
    clock five times per window to time its busy and barrier phases; with
    [telemetry], those timings are copied into the accumulator at the
    end. *)

val events_executed : _ t -> int
(** Total events executed across all shards (stable across domain
    counts). *)

val ctx_shard : _ ctx -> int
val ctx_now : _ ctx -> float
val ctx_num_shards : _ ctx -> int

val ctx_schedule : 'a ctx -> at:float -> 'a -> unit
(** Schedule on the current shard. Raises [Invalid_argument] if [at] is
    in the shard's past. *)

val ctx_post : 'a ctx -> dst:int -> at:float -> 'a -> unit
(** Schedule on shard [dst]. Raises [Invalid_argument] if [dst] is out of
    range or [at < now + lookahead] when [dst] differs from the current
    shard. *)
