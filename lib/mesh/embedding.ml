module Prng = Diva_util.Prng

type t = { decomposition : Decomposition.t; place : int array }
type kind = Regular | Random

let place t id = t.place.(id)

(* Walk the tree top-down so that a child's placement can depend on its
   parent's. [pick] receives the child id and the parent's placement. *)
let top_down (d : Decomposition.t) ~root_place ~pick =
  let n = d.Decomposition.num_tree_nodes in
  let place = Array.make n (-1) in
  place.(0) <- root_place;
  (* Preorder ids guarantee parents are placed before their children. *)
  for id = 1 to n - 1 do
    let p = d.Decomposition.proc.(id) in
    if p >= 0 then place.(id) <- p
    else place.(id) <- pick id place.(d.Decomposition.parent.(id))
  done;
  { decomposition = d; place }

(* The paper's regular rule, per dimension: the child node sits at the
   parent's position within the parent's submesh, taken modulo the child's
   submesh sides. Placement rules work one dimension at a time on integers
   ([Mesh.coord], [Mesh.stride]) and build no coordinate arrays, because
   [place_lazy] runs them once per ancestor level every time the data
   layer materialises a tree node. *)
let regular_child (d : Decomposition.t) id parent_place =
  let mesh = d.Decomposition.mesh in
  let sm = d.Decomposition.submesh.(id) in
  let psm = d.Decomposition.submesh.(d.Decomposition.parent.(id)) in
  let node = ref 0 in
  for k = 0 to Array.length sm.Decomposition.origin - 1 do
    let rel = Mesh.coord mesh parent_place k - psm.Decomposition.origin.(k) in
    let c = sm.Decomposition.origin.(k) + (rel mod sm.Decomposition.sizes.(k)) in
    node := !node + (c * Mesh.stride mesh k)
  done;
  !node

let regular (d : Decomposition.t) ~rng =
  let mesh = d.Decomposition.mesh in
  let root_place = Prng.int rng (Mesh.num_nodes mesh) in
  top_down d ~root_place ~pick:(fun id pp -> regular_child d id pp)

(* A uniform node of tree node [id]'s submesh, one draw per dimension, in
   dimension order. *)
let uniform_in_rng (d : Decomposition.t) rng id =
  let mesh = d.Decomposition.mesh in
  let sm = d.Decomposition.submesh.(id) in
  let node = ref 0 in
  for k = 0 to Array.length sm.Decomposition.origin - 1 do
    let c = sm.Decomposition.origin.(k) + Prng.int rng sm.Decomposition.sizes.(k) in
    node := !node + (c * Mesh.stride mesh k)
  done;
  !node

let random (d : Decomposition.t) ~rng =
  let root_place = uniform_in_rng d rng 0 in
  top_down d ~root_place ~pick:(fun id _ -> uniform_in_rng d rng id)

let tree_edge_route t ~child =
  let d = t.decomposition in
  let parent = d.Decomposition.parent.(child) in
  if parent < 0 then invalid_arg "Embedding.tree_edge_route: root has no parent";
  Mesh.route d.Decomposition.mesh ~src:t.place.(child) ~dst:t.place.(parent)

let make kind d ~rng =
  match kind with Regular -> regular d ~rng | Random -> random d ~rng

(* Top-level rather than local closures, so a lazy placement allocates
   nothing. *)
let rec regular_lazy (d : Decomposition.t) seed id =
  if id = 0 then
    Prng.hash2_int seed 0 ~bound:(Mesh.num_nodes d.Decomposition.mesh)
  else regular_child d id (regular_lazy d seed d.Decomposition.parent.(id))

let random_lazy (d : Decomposition.t) seed id =
  let mesh = d.Decomposition.mesh in
  let sm = d.Decomposition.submesh.(id) in
  let ndims = Array.length sm.Decomposition.origin in
  let node = ref 0 in
  for k = 0 to ndims - 1 do
    let c =
      sm.Decomposition.origin.(k)
      + Prng.hash2_int seed ((ndims * id) + k) ~bound:sm.Decomposition.sizes.(k)
    in
    node := !node + (c * Mesh.stride mesh k)
  done;
  !node

let place_lazy kind (d : Decomposition.t) ~seed id =
  let p = d.Decomposition.proc.(id) in
  if p >= 0 then p
  else
    match kind with
    | Random -> random_lazy d seed id
    | Regular -> regular_lazy d seed id
