(* Tests for the mesh topology, hierarchical decomposition and embeddings. *)

module Mesh = Diva_mesh.Mesh
module Deco = Diva_mesh.Decomposition
module Embedding = Diva_mesh.Embedding
module Prng = Diva_util.Prng

let test_coords_roundtrip () =
  let m = Mesh.create ~rows:5 ~cols:7 in
  for v = 0 to Mesh.num_nodes m - 1 do
    let r, c = Mesh.coords m v in
    Alcotest.(check int) "roundtrip" v (Mesh.node_at m ~row:r ~col:c)
  done

let test_route_length () =
  let m = Mesh.create ~rows:8 ~cols:8 in
  let rng = Prng.create ~seed:1 in
  for _ = 1 to 200 do
    let src = Prng.int rng 64 and dst = Prng.int rng 64 in
    let route = Mesh.route m ~src ~dst in
    Alcotest.(check int) "shortest path" (Mesh.distance m src dst)
      (List.length route)
  done

let test_route_connected () =
  let m = Mesh.create ~rows:6 ~cols:4 in
  let rng = Prng.create ~seed:2 in
  for _ = 1 to 200 do
    let src = Prng.int rng 24 and dst = Prng.int rng 24 in
    let route = Mesh.route m ~src ~dst in
    let cur = ref src in
    List.iter
      (fun l ->
        let a, b = Mesh.link_endpoints m l in
        Alcotest.(check int) "chained" !cur a;
        cur := b)
      route;
    Alcotest.(check int) "reaches dst" dst !cur
  done

let test_route_dimension_order () =
  (* Dimension 1 first: all column moves must precede all row moves. *)
  let m = Mesh.create ~rows:8 ~cols:8 in
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 100 do
    let src = Prng.int rng 64 and dst = Prng.int rng 64 in
    let route = Mesh.route m ~src ~dst in
    let moves =
      List.map
        (fun l ->
          let a, b = Mesh.link_endpoints m l in
          let ra, ca = Mesh.coords m a and rb, cb = Mesh.coords m b in
          if ra = rb && ca <> cb then `Col else `Row)
        route
    in
    let rec check seen_row = function
      | [] -> true
      | `Row :: rest -> check true rest
      | `Col :: rest -> (not seen_row) && check false rest
    in
    Alcotest.(check bool) "XY order" true (check false moves)
  done

let test_route_self () =
  let m = Mesh.create ~rows:3 ~cols:3 in
  Alcotest.(check (list int)) "empty" [] (Mesh.route m ~src:4 ~dst:4)

(* --- decomposition ------------------------------------------------- *)

let check_partition (d : Deco.t) id =
  (* Children submeshes partition the parent's submesh. *)
  let sm = d.Deco.submesh.(id) in
  let kids = d.Deco.children.(id) in
  if Array.length kids > 0 then begin
    let total =
      Array.fold_left (fun acc k -> acc + Deco.size d.Deco.submesh.(k)) 0 kids
    in
    Alcotest.(check int) "sizes add up" (Deco.size sm) total;
    Array.iter
      (fun k ->
        let ksm = d.Deco.submesh.(k) in
        Alcotest.(check bool) "child inside parent" true
          (Deco.mem sm ksm.Deco.origin))
      kids
  end

let test_decomposition_partition () =
  List.iter
    (fun (rows, cols, arity, leaf) ->
      let m = Mesh.create ~rows ~cols in
      let d = Deco.build m ~arity ~leaf_size:leaf in
      for id = 0 to d.Deco.num_tree_nodes - 1 do
        check_partition d id
      done)
    [
      (4, 3, Deco.Two, 1); (8, 8, Deco.Four, 1); (16, 16, Deco.Sixteen, 1);
      (8, 8, Deco.Two, 4); (8, 16, Deco.Four, 16); (5, 7, Deco.Two, 1);
      (1, 1, Deco.Two, 1); (2, 1, Deco.Two, 1);
    ]

let test_decomposition_leaves () =
  List.iter
    (fun (rows, cols, arity, leaf) ->
      let m = Mesh.create ~rows ~cols in
      let d = Deco.build m ~arity ~leaf_size:leaf in
      (* Every processor has exactly one leaf, and it is a real leaf. *)
      let count = ref 0 in
      for id = 0 to d.Deco.num_tree_nodes - 1 do
        if Deco.is_leaf d id then begin
          incr count;
          Alcotest.(check int) "leaf has no children" 0
            (Array.length d.Deco.children.(id));
          Alcotest.(check int) "leaf_of_proc inverse" id
            d.Deco.leaf_of_proc.(d.Deco.proc.(id))
        end
      done;
      Alcotest.(check int) "one leaf per proc" (rows * cols) !count)
    [ (4, 4, Deco.Two, 1); (8, 8, Deco.Four, 1); (16, 16, Deco.Four, 16);
      (4, 8, Deco.Sixteen, 1); (3, 5, Deco.Two, 4) ]

let test_decomposition_parent_child_consistency () =
  let m = Mesh.create ~rows:8 ~cols:8 in
  let d = Deco.build m ~arity:Deco.Four ~leaf_size:4 in
  for id = 1 to d.Deco.num_tree_nodes - 1 do
    let p = d.Deco.parent.(id) in
    Alcotest.(check bool) "parent lists child" true
      (Array.exists (fun k -> k = id) d.Deco.children.(p));
    Alcotest.(check int) "depth" (d.Deco.depth.(p) + 1) d.Deco.depth.(id)
  done

let test_arity_matches () =
  (* On a 16x16 mesh every internal node of the 4-ary tree has exactly 4
     children (power-of-two square mesh). *)
  let m = Mesh.create ~rows:16 ~cols:16 in
  let d = Deco.build m ~arity:Deco.Four ~leaf_size:1 in
  for id = 0 to d.Deco.num_tree_nodes - 1 do
    if not (Deco.is_leaf d id) then
      Alcotest.(check int) "4 children" 4 (Array.length d.Deco.children.(id))
  done;
  let d16 = Deco.build m ~arity:Deco.Sixteen ~leaf_size:1 in
  for id = 0 to d16.Deco.num_tree_nodes - 1 do
    if not (Deco.is_leaf d16 id) then
      Alcotest.(check int) "16 children" 16 (Array.length d16.Deco.children.(id))
  done

let test_terminated_leaf_size () =
  (* 2-4-ary: terminated submeshes have size <= 4 and their tree node has
     one child per processor. *)
  let m = Mesh.create ~rows:8 ~cols:8 in
  let d = Deco.build m ~arity:Deco.Two ~leaf_size:4 in
  for id = 0 to d.Deco.num_tree_nodes - 1 do
    let kids = d.Deco.children.(id) in
    if Array.length kids > 0 && Deco.is_leaf d kids.(0) then begin
      Alcotest.(check bool) "terminated size <= 4" true
        (Deco.size d.Deco.submesh.(id) <= 4);
      Alcotest.(check int) "one child per proc" (Deco.size d.Deco.submesh.(id))
        (Array.length kids)
    end
  done

let test_height_decreases_with_arity () =
  let m = Mesh.create ~rows:32 ~cols:32 in
  let h2 = Deco.height (Deco.build m ~arity:Deco.Two ~leaf_size:1) in
  let h4 = Deco.height (Deco.build m ~arity:Deco.Four ~leaf_size:1) in
  let h16 = Deco.height (Deco.build m ~arity:Deco.Sixteen ~leaf_size:1) in
  Alcotest.(check bool) "2-ary taller than 4-ary" true (h2 > h4);
  Alcotest.(check bool) "4-ary taller than 16-ary" true (h4 > h16);
  Alcotest.(check int) "2-ary height of 32x32" 10 h2;
  Alcotest.(check int) "4-ary height of 32x32" 5 h4

let test_snake_order () =
  List.iter
    (fun (rows, cols) ->
      let m = Mesh.create ~rows ~cols in
      let order = Deco.snake_order m in
      Alcotest.(check int) "covers all" (rows * cols) (Array.length order);
      let sorted = Array.copy order in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "permutation" (Array.init (rows * cols) Fun.id)
        sorted;
      (* Locality: consecutive processors in snake order are close. *)
      let maxd = ref 0 in
      for i = 0 to Array.length order - 2 do
        maxd := max !maxd (Mesh.distance m order.(i) order.(i + 1))
      done;
      Alcotest.(check bool) "consecutive are nearby" true
        (!maxd <= (rows + cols) / 2))
    [ (8, 8); (16, 16); (4, 8) ]

let test_next_hop_and_subtree () =
  let m = Mesh.create ~rows:8 ~cols:8 in
  let d = Deco.build m ~arity:Deco.Two ~leaf_size:1 in
  let rng = Prng.create ~seed:4 in
  for _ = 1 to 500 do
    let a = Prng.int rng d.Deco.num_tree_nodes in
    let b = Prng.int rng d.Deco.num_tree_nodes in
    if a <> b then begin
      (* Walking next_hop from a must reach b in at most 2*height steps. *)
      let rec walk cur steps =
        if cur = b then steps
        else if steps > 2 * (Deco.height d + 1) then -1
        else walk (Deco.next_hop d ~from:cur ~target:b) (steps + 1)
      in
      Alcotest.(check bool) "walk reaches target" true (walk a 0 >= 0)
    end
  done

let test_strategy_names () =
  Alcotest.(check string) "2-ary" "2-ary"
    (Deco.strategy_name ~arity:Deco.Two ~leaf_size:1);
  Alcotest.(check string) "2-4-ary" "2-4-ary"
    (Deco.strategy_name ~arity:Deco.Two ~leaf_size:4);
  Alcotest.(check string) "4-16-ary" "4-16-ary"
    (Deco.strategy_name ~arity:Deco.Four ~leaf_size:16)

(* --- embedding ----------------------------------------------------- *)

let test_embedding_in_submesh kind () =
  List.iter
    (fun (rows, cols, arity) ->
      let m = Mesh.create ~rows ~cols in
      let d = Deco.build m ~arity ~leaf_size:1 in
      let rng = Prng.create ~seed:5 in
      for _ = 1 to 5 do
        let e = Embedding.make kind d ~rng in
        for id = 0 to d.Deco.num_tree_nodes - 1 do
          let place = Embedding.place e id in
          Alcotest.(check bool) "inside its submesh" true
            (Deco.mem d.Deco.submesh.(id) (Mesh.coords_nd m place));
          if Deco.is_leaf d id then
            Alcotest.(check int) "leaf on its own proc" d.Deco.proc.(id) place
        done
      done)
    [ (8, 8, Deco.Two); (16, 16, Deco.Four); (4, 6, Deco.Two) ]

let test_lazy_embedding_in_submesh () =
  List.iter
    (fun kind ->
      let m = Mesh.create ~rows:16 ~cols:16 in
      let d = Deco.build m ~arity:Deco.Four ~leaf_size:1 in
      for seed = 1 to 20 do
        for id = 0 to d.Deco.num_tree_nodes - 1 do
          let place = Embedding.place_lazy kind d ~seed:(Int64.of_int seed) id in
          Alcotest.(check bool) "inside its submesh" true
            (Deco.mem d.Deco.submesh.(id) (Mesh.coords_nd m place));
          Alcotest.(check int) "deterministic" place
            (Embedding.place_lazy kind d ~seed:(Int64.of_int seed) id)
        done
      done)
    [ Embedding.Regular; Embedding.Random ]

let test_lazy_regular_roots_spread () =
  (* Different variables must get different root placements. *)
  let m = Mesh.create ~rows:16 ~cols:16 in
  let d = Deco.build m ~arity:Deco.Four ~leaf_size:1 in
  let roots = Hashtbl.create 64 in
  for seed = 1 to 256 do
    Hashtbl.replace roots
      (Embedding.place_lazy Embedding.Regular d ~seed:(Int64.of_int seed) 0)
      ()
  done;
  Alcotest.(check bool) "roots spread over the mesh" true
    (Hashtbl.length roots > 100)

let test_regular_embedding_short_edges () =
  (* The regular embedding's tree edges should be shorter on average than
     the fully random embedding's (that is its purpose). *)
  let m = Mesh.create ~rows:16 ~cols:16 in
  let d = Deco.build m ~arity:Deco.Two ~leaf_size:1 in
  let total kind =
    let sum = ref 0 in
    for seed = 1 to 50 do
      for id = 1 to d.Deco.num_tree_nodes - 1 do
        let pl = Embedding.place_lazy kind d ~seed:(Int64.of_int seed) id in
        let pp =
          Embedding.place_lazy kind d ~seed:(Int64.of_int seed) d.Deco.parent.(id)
        in
        sum := !sum + Mesh.distance m pl pp
      done
    done;
    !sum
  in
  Alcotest.(check bool) "regular shorter than random" true
    (total Embedding.Regular < total Embedding.Random)

(* The placement rules written with coordinate arrays, materialised
   top-down in preorder as [Embedding.make] does: [root n] places the root
   of a regular embedding, [draw id k size] picks a random node's offset in
   dimension [k]. Both [place_lazy] (integer arithmetic per dimension) and
   [make] must agree with it node for node. *)
let reference_table kind (d : Deco.t) ~root ~draw =
  let m = d.Deco.mesh in
  let n = d.Deco.num_tree_nodes in
  let place = Array.make n (-1) in
  for id = 0 to n - 1 do
    let sm = d.Deco.submesh.(id) in
    place.(id) <-
      (if d.Deco.proc.(id) >= 0 then d.Deco.proc.(id)
       else
         match kind with
         | Embedding.Random ->
             Mesh.node_at_nd m
               (Array.mapi (fun k o -> o + draw id k sm.Deco.sizes.(k)) sm.Deco.origin)
         | Embedding.Regular when id = 0 -> root (Mesh.num_nodes m)
         | Embedding.Regular ->
             let parent = d.Deco.parent.(id) in
             let psm = d.Deco.submesh.(parent) in
             let pc = Mesh.coords_nd m place.(parent) in
             Mesh.node_at_nd m
               (Array.mapi
                  (fun k o -> o + ((pc.(k) - psm.Deco.origin.(k)) mod sm.Deco.sizes.(k)))
                  sm.Deco.origin))
  done;
  place

let embedding_configs =
  List.concat_map
    (fun dims ->
      List.map (fun arity -> (dims, arity)) [ Deco.Two; Deco.Four ])
    [ [| 8; 8 |]; [| 4; 6 |]; [| 5; 3 |]; [| 4; 4; 4 |]; [| 2; 3; 4 |] ]

let test_lazy_embedding_matches_table () =
  List.iter
    (fun (dims, arity) ->
      let m = Mesh.create_nd ~dims in
      let d = Deco.build m ~arity ~leaf_size:1 in
      let n = d.Deco.num_tree_nodes in
      let name = String.concat "x" (Array.to_list (Array.map string_of_int dims)) in
      List.iter
        (fun kind ->
          for s = 1 to 6 do
            let seed = Int64.of_int (1000 * s) in
            (* [place_lazy] against the rules, with the seeded draws. *)
            let want =
              reference_table kind d
                ~root:(fun nn -> Prng.hash2_int seed 0 ~bound:nn)
                ~draw:(fun id k size ->
                  Prng.hash2_int seed ((Array.length dims * id) + k) ~bound:size)
            in
            for id = 0 to n - 1 do
              Alcotest.(check int)
                (Printf.sprintf "%s lazy node %d" name id)
                want.(id) (Embedding.place_lazy kind d ~seed id)
            done;
            (* [make]'s table against the same rules, with its rng draws. *)
            let rng = Prng.create ~seed:s and ref_rng = Prng.create ~seed:s in
            let e = Embedding.make kind d ~rng in
            let want =
              reference_table kind d
                ~root:(fun nn -> Prng.int ref_rng nn)
                ~draw:(fun _ _ size -> Prng.int ref_rng size)
            in
            for id = 0 to n - 1 do
              Alcotest.(check int)
                (Printf.sprintf "%s table node %d" name id)
                want.(id) (Embedding.place e id)
            done;
            (* A regular embedding is fixed by its root: a seed whose lazy
               root matches [make]'s reproduces the whole table. *)
            if kind = Embedding.Regular then begin
              let root = Embedding.place e 0 in
              let rec find k =
                let seed = Int64.of_int k in
                if Embedding.place_lazy kind d ~seed 0 = root then seed
                else find (k + 1)
              in
              let seed = find 0 in
              for id = 0 to n - 1 do
                Alcotest.(check int)
                  (Printf.sprintf "%s regular node %d" name id)
                  (Embedding.place e id) (Embedding.place_lazy kind d ~seed id)
              done
            end
          done)
        [ Embedding.Regular; Embedding.Random ])
    embedding_configs

(* [place_lazy] runs once per tree-node materialisation in the data
   layer, so it must not allocate: no coordinate arrays, closures or boxed
   hashes. *)
let test_lazy_embedding_allocates_nothing () =
  let m = Mesh.create_nd ~dims:[| 16; 8; 4 |] in
  let d = Deco.build m ~arity:Deco.Four ~leaf_size:1 in
  List.iter
    (fun kind ->
      let sum = ref 0 in
      let before = Gc.minor_words () in
      for id = 0 to d.Deco.num_tree_nodes - 1 do
        sum := !sum + Embedding.place_lazy kind d ~seed:77L id
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f minor words over %d nodes" words d.Deco.num_tree_nodes)
        true
        (words < 8.0 && !sum > 0))
    [ Embedding.Regular; Embedding.Random ]

let suite =
  [
    Alcotest.test_case "coords roundtrip" `Quick test_coords_roundtrip;
    Alcotest.test_case "route length" `Quick test_route_length;
    Alcotest.test_case "route connected" `Quick test_route_connected;
    Alcotest.test_case "route dimension order" `Quick test_route_dimension_order;
    Alcotest.test_case "route self" `Quick test_route_self;
    Alcotest.test_case "decomposition partition" `Quick test_decomposition_partition;
    Alcotest.test_case "decomposition leaves" `Quick test_decomposition_leaves;
    Alcotest.test_case "parent/child consistency" `Quick
      test_decomposition_parent_child_consistency;
    Alcotest.test_case "arity matches" `Quick test_arity_matches;
    Alcotest.test_case "terminated leaf size" `Quick test_terminated_leaf_size;
    Alcotest.test_case "height vs arity" `Quick test_height_decreases_with_arity;
    Alcotest.test_case "snake order" `Quick test_snake_order;
    Alcotest.test_case "next_hop walks" `Quick test_next_hop_and_subtree;
    Alcotest.test_case "strategy names" `Quick test_strategy_names;
    Alcotest.test_case "regular embedding in submesh" `Quick
      (test_embedding_in_submesh Embedding.Regular);
    Alcotest.test_case "random embedding in submesh" `Quick
      (test_embedding_in_submesh Embedding.Random);
    Alcotest.test_case "lazy embedding in submesh" `Quick
      test_lazy_embedding_in_submesh;
    Alcotest.test_case "lazy regular roots spread" `Quick
      test_lazy_regular_roots_spread;
    Alcotest.test_case "lazy embedding matches the table" `Quick
      test_lazy_embedding_matches_table;
    Alcotest.test_case "lazy embedding allocates nothing" `Quick
      test_lazy_embedding_allocates_nothing;
    Alcotest.test_case "regular embedding short edges" `Quick
      test_regular_embedding_short_edges;
  ]
