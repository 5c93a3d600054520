(** First-class data-management strategy interface.

    One module signature ({!STRATEGY}) covers every contender; a strategy
    choice is a {!spec} (a configured variant), resolved to a packed
    {!instance} by {!Registry}. The [Dsm] façade drives instances only
    through the generic dispatchers below, so adding a strategy never
    touches the façade. *)

type eviction = Lru | Freq
(** Victim selection under a finite per-node capacity: least recently
    used, or least frequently used (lifetime touch count). *)

type tree_config = {
  arity : int;  (** 2, 4 or 16 *)
  leaf_size : int;  (** terminate the decomposition at submeshes <= this *)
  embedding : Diva_mesh.Embedding.kind;
  capacity : int option;  (** per-processor memory bound in bytes *)
  combining : bool;  (** read combining (on by default) *)
  remap_threshold : int option;
      (** enable the FOCS'97 remapping of hot tree nodes *)
  eviction : eviction;  (** victim policy when [capacity] is set *)
  prefetch : bool;
      (** push speculative copies one level down the tree on read replies *)
}

type adaptive_config = {
  replicate_after : int;
      (** grant a cached replica only after this many consecutive home
          misses by the same processor since its last invalidation *)
  migrate_after : int;
      (** re-examine the home placement every this many home transactions *)
}

type spec =
  | Access_tree of tree_config
  | Fixed_home
  | Adaptive of adaptive_config

val tree_defaults : tree_config
(** The paper's defaults: 4-ary, leaf size 1, regular embedding, unbounded
    memory, combining on, LRU, no prefetch. *)

val adaptive_defaults : adaptive_config

val tree_name : tree_config -> string
val spec_name : spec -> string
(** "2-ary", "4-16-ary", "fixed home", "4-ary+prefetch", ... *)

val family_id : spec -> string
(** Short family identifier: "access-tree", "fixed-home" or "adaptive". *)

module type STRATEGY = sig
  type t
  type config

  val create : Diva_simnet.Network.t -> config -> t
  (** Init hook: build all protocol state. Must not install network
      handlers — the [Dsm] façade dispatches into {!handle}. *)

  val sync_deco : t -> Diva_mesh.Decomposition.t option
  (** Sync hook: the decomposition tree barriers/reductions should run on
      ([None] = the registry's default four-ary tree). *)

  val handle : t -> Diva_simnet.Network.msg -> bool
  (** Consume a protocol message; [false] if the payload is foreign. *)

  val cached : t -> Types.proc -> Types.var -> bool
  (** Local-read fast path: serve without communication? *)

  val sole_copy : t -> Types.proc -> Types.var -> bool
  (** Local-write fast path: does [p] hold the only copy, with no
      transaction in flight? *)

  val read : t -> Types.proc -> Types.var -> k:(Value.t -> unit) -> unit
  val write : t -> Types.proc -> Types.var -> Value.t -> k:(unit -> unit) -> unit
  val lock : t -> Types.proc -> Types.var -> k:(unit -> unit) -> unit
  val unlock : t -> Types.proc -> Types.var -> unit

  val ncopies : t -> Types.var -> int
  val copy_holder_places : t -> Types.var -> Types.proc list
  (** Mesh processors currently holding a copy, sorted, duplicates
      removed. *)

  val evictions : t -> int
  val remaps : t -> int
  (** Cost accounting beyond message traffic: capacity evictions and
      tree-node remappings / home migrations. *)

  val retire : t -> Types.var -> unit
  val validate : t -> Types.var -> (unit, string) result
end

type instance =
  | Instance : (module STRATEGY with type t = 'a) * 'a -> instance

(** {2 Generic dispatchers} *)

val sync_deco : instance -> Diva_mesh.Decomposition.t option
val handle : instance -> Diva_simnet.Network.msg -> bool
val cached : instance -> Types.proc -> Types.var -> bool
val sole_copy : instance -> Types.proc -> Types.var -> bool
val read : instance -> Types.proc -> Types.var -> k:(Value.t -> unit) -> unit
val write :
  instance -> Types.proc -> Types.var -> Value.t -> k:(unit -> unit) -> unit
val lock : instance -> Types.proc -> Types.var -> k:(unit -> unit) -> unit
val unlock : instance -> Types.proc -> Types.var -> unit
val ncopies : instance -> Types.var -> int
val copy_holder_places : instance -> Types.var -> Types.proc list
val evictions : instance -> int
val remaps : instance -> int
val retire : instance -> Types.var -> unit
val validate : instance -> Types.var -> (unit, string) result
