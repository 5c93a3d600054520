(* First-class data-management strategy interface.

   Every protocol — the paper's access tree (which also serves the zoo's
   tree prefetching and capacity-bounded caching) and the home-based
   protocol (the paper's fixed home, and adaptive replication with home
   migration) — implements the one STRATEGY signature below and is packed into an existential [instance].
   The [Dsm] façade talks only to instances; the [Registry] maps names to
   configured [spec]s so every tool (divasim, bench, chaos, serve,
   analyze) resolves strategies uniformly. *)

module Deco = Diva_mesh.Decomposition
module Embedding = Diva_mesh.Embedding

(* Victim selection under a finite per-node capacity: classic LRU, or
   least-frequently-used (total touches over the copy's lifetime). *)
type eviction = Lru | Freq

type tree_config = {
  arity : int;  (* 2, 4 or 16 *)
  leaf_size : int;  (* terminate the decomposition at submeshes <= this *)
  embedding : Embedding.kind;
  capacity : int option;  (* per-processor memory bound in bytes *)
  combining : bool;  (* read combining (on by default) *)
  remap_threshold : int option;  (* FOCS'97 remapping of hot tree nodes *)
  eviction : eviction;  (* victim policy when [capacity] is set *)
  prefetch : bool;  (* speculative copies pushed down the tree on reads *)
}

type adaptive_config = {
  replicate_after : int;
      (* grant a cached replica only after this many consecutive home
         misses by the same processor since its last invalidation *)
  migrate_after : int;
      (* re-examine the home placement every this many home transactions *)
}

type spec =
  | Access_tree of tree_config
  | Fixed_home
  | Adaptive of adaptive_config

let tree_defaults =
  {
    arity = 4;
    leaf_size = 1;
    embedding = Embedding.Regular;
    capacity = None;
    combining = true;
    remap_threshold = None;
    eviction = Lru;
    prefetch = false;
  }

let adaptive_defaults = { replicate_after = 2; migrate_after = 64 }

(* Display names: the paper's own names for the paper's strategies
   (golden traces and manifests depend on them), decorated suffixes for
   the zoo additions. *)
let tree_name (c : tree_config) =
  let base =
    Deco.strategy_name ~arity:(Deco.arity_of_int c.arity) ~leaf_size:c.leaf_size
  in
  let base = if c.prefetch then base ^ "+prefetch" else base in
  let base =
    match c.capacity with
    | None -> base
    | Some cap when cap mod 1024 = 0 -> Printf.sprintf "%s+cap%dk" base (cap / 1024)
    | Some cap -> Printf.sprintf "%s+cap%d" base cap
  in
  match c.eviction with Lru -> base | Freq -> base ^ "+freq-evict"

let spec_name = function
  | Fixed_home -> "fixed home"
  | Access_tree c -> tree_name c
  | Adaptive _ -> "adaptive-home"

(* Family identifiers: which variant of [spec] was chosen, whatever its
   configuration. Fixed home and adaptive share one protocol, so the
   family cannot come from the implementation. *)
let family_id = function
  | Access_tree _ -> "access-tree"
  | Fixed_home -> "fixed-home"
  | Adaptive _ -> "adaptive"

(* The one signature every strategy implements: init (create), the
   read/write data hooks, lock/unlock, the sync-tree hook, copy-set and
   cost accounting, and the structural test hooks. Causal-id threading is
   free: protocol messages sent from [read]/[write]/[lock] handlers
   inherit the network's current transaction context. *)
module type STRATEGY = sig
  type t
  type config

  val create : Diva_simnet.Network.t -> config -> t
  (** Init hook: build all protocol state. Must not install network
      handlers — the [Dsm] façade dispatches into {!handle}. *)

  val sync_deco : t -> Deco.t option
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

(* Generic dispatchers over a packed instance. *)

let sync_deco (Instance ((module S), s)) = S.sync_deco s
let handle (Instance ((module S), s)) msg = S.handle s msg
let cached (Instance ((module S), s)) p var = S.cached s p var
let sole_copy (Instance ((module S), s)) p var = S.sole_copy s p var
let read (Instance ((module S), s)) p var ~k = S.read s p var ~k
let write (Instance ((module S), s)) p var v ~k = S.write s p var v ~k
let lock (Instance ((module S), s)) p var ~k = S.lock s p var ~k
let unlock (Instance ((module S), s)) p var = S.unlock s p var
let ncopies (Instance ((module S), s)) var = S.ncopies s var
let copy_holder_places (Instance ((module S), s)) var = S.copy_holder_places s var
let evictions (Instance ((module S), s)) = S.evictions s
let remaps (Instance ((module S), s)) = S.remaps s
let retire (Instance ((module S), s)) var = S.retire s var
let validate (Instance ((module S), s)) var = S.validate s var
