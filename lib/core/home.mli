(** The home-based ownership protocol: the paper's fixed home baseline
    and its frequency-adaptive variant, as two settings of one module.

    Every variable has a home processor, initially hashed from its seed,
    that tracks the variable's copies with the classic ownership scheme.
    At any time either one processor or the home ("main memory") owns
    the variable. A write by a non-owner asks the home to invalidate all
    copies and hands ownership to the writer, whose later writes are
    local. A read by a processor without a copy goes to the home, which
    first moves the data back from an owning processor, then replies. All
    requests for a variable serialize at its home — the bottleneck the
    paper measures. Locks are a FIFO queue at the home.

    Two parameters from the data-grids replication literature make the
    home adaptive:

    - a reader earns a cached replica only after [replicate_after]
      consecutive home read misses since its last invalidation, so cold
      or write-shared data stays un-replicated and its writes pay no
      invalidation fan-out;
    - every [migrate_after] home transactions the home re-examines the
      per-processor request tally and migrates to a processor that
      accounts for at least half of the window (paying one data-sized
      state-transfer message, counted as a remap); requests already in
      flight toward the old home are forwarded.

    [create] raises [Invalid_argument] if either parameter is < 1. *)

val fixed : Strategy.adaptive_config
(** Fixed home, the CC-NUMA-like strategy the paper compares against:
    replicate from the first miss and never migrate
    ([replicate_after = 1], [migrate_after = max_int]). *)

module Impl : Strategy.STRATEGY with type config = Strategy.adaptive_config
(** The protocol packed as a first-class strategy. *)
