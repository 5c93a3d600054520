(* Error paths and API edge cases across the stack. *)

module Mesh = Diva_mesh.Mesh
module Deco = Diva_mesh.Decomposition
module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Dsm = Diva_core.Dsm
open Helpers

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

let test_mesh_argument_errors () =
  Alcotest.(check bool) "zero side" true
    (raises_invalid (fun () -> Mesh.create ~rows:0 ~cols:3));
  Alcotest.(check bool) "empty dims" true
    (raises_invalid (fun () -> Mesh.create_nd ~dims:[||]));
  let m = Mesh.create ~rows:2 ~cols:2 in
  Alcotest.(check bool) "node_at out of range" true
    (raises_invalid (fun () -> Mesh.node_at m ~row:2 ~col:0));
  let m3 = Mesh.create_nd ~dims:[| 2; 2; 2 |] in
  Alcotest.(check bool) "rows on 3-D" true
    (raises_invalid (fun () -> Mesh.rows m3));
  Alcotest.(check bool) "coords on 3-D" true
    (raises_invalid (fun () -> Mesh.coords m3 0));
  Alcotest.(check bool) "node_at_nd wrong arity" true
    (raises_invalid (fun () -> Mesh.node_at_nd m [| 1 |]))

let test_decomposition_argument_errors () =
  let m = Mesh.create ~rows:4 ~cols:4 in
  Alcotest.(check bool) "leaf_size 0" true
    (raises_invalid (fun () -> Deco.build m ~arity:Deco.Two ~leaf_size:0));
  Alcotest.(check bool) "arity 3" true
    (raises_invalid (fun () -> ignore (Deco.arity_of_int 3)));
  let d = Deco.build m ~arity:Deco.Two ~leaf_size:1 in
  Alcotest.(check bool) "next_hop self" true
    (raises_invalid (fun () -> Deco.next_hop d ~from:3 ~target:3))

let test_dsm_argument_errors () =
  let _, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:2 ()) in
  Alcotest.(check bool) "bad owner" true
    (raises_invalid (fun () -> Dsm.create_var dsm ~owner:99 ~size:8 0));
  Alcotest.(check bool) "negative size" true
    (raises_invalid (fun () -> Dsm.create_var dsm ~owner:0 ~size:(-1) 0))

let test_unlock_without_lock () =
  let net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:2 ()) in
  let v = Dsm.create_var dsm ~owner:0 ~size:8 0 in
  let raised = ref false in
  Network.spawn net 1 (fun () ->
      match Dsm.unlock dsm 1 v with
      | exception Invalid_argument _ -> raised := true
      | () -> ());
  Network.run net;
  Alcotest.(check bool) "unlock without holding" true !raised

let test_network_compute_negative () =
  let net = make_net ~rows:1 ~cols:1 () in
  Network.spawn net 0 (fun () ->
      match Network.charge net 0 (-1.0) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "negative charge accepted");
  Network.run net

let test_zero_size_variable () =
  (* Size-0 variables (pure synchronization objects) must work. *)
  let net, dsm = make_dsm ~rows:2 ~cols:2 (Dsm.access_tree ~arity:2 ()) in
  let v = Dsm.create_var dsm ~owner:0 ~size:0 () in
  run_procs net (fun p ->
      Dsm.lock dsm p v;
      Dsm.unlock dsm p v;
      Dsm.barrier dsm p;
      Dsm.read dsm p v);
  Alcotest.(check unit) "unit value" () (Dsm.peek v)

let test_large_variable_times () =
  (* A 1 MB variable takes about a second per link at 1 byte/us. *)
  let machine = Machine.gcel in
  let net = Network.create ~machine ~rows:1 ~cols:2 () in
  let dsm = Dsm.create net ~strategy:(Dsm.access_tree ~arity:2 ()) () in
  let v = Dsm.create_var dsm ~owner:0 ~size:1_000_000 7 in
  Network.spawn net 1 (fun () -> ignore (Dsm.read dsm 1 v));
  Network.spawn net 0 (fun () -> ());
  Network.run net;
  Alcotest.(check bool)
    (Printf.sprintf "transfer-dominated time (%.0f us)" (Network.now net))
    true
    (Network.now net >= 1_000_000.0)

let test_many_small_variables () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:4 ()) in
  let vars = Array.init 500 (fun i -> Dsm.create_var dsm ~owner:(i mod 16) ~size:8 i) in
  run_procs net (fun p ->
      Array.iteri
        (fun i v ->
          if (i + p) mod 7 = 0 then
            Alcotest.(check int) "value" i (Dsm.read dsm p v))
        vars);
  Array.iteri (fun i v -> Alcotest.(check int) "peek" i (Dsm.peek v)) vars

let test_retire_and_reuse_memory () =
  let net, dsm = make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:2 ()) in
  let finished = ref false in
  run_procs net (fun p ->
      for round = 1 to 5 do
        (* Allocate short-lived variables, share them, retire them. *)
        let v = Dsm.create_var dsm ~owner:p ~size:64 (p * round) in
        Dsm.barrier dsm p;
        ignore (Dsm.read dsm p v);
        Dsm.barrier dsm p;
        Dsm.retire_var dsm v;
        Dsm.barrier dsm p
      done;
      if p = 0 then finished := true);
  Alcotest.(check bool) "completed" true !finished

(* Retiring a remapped variable forgets all of its protocol state: every
   tree node is back at its default placement, the only copy is the
   owner's leaf and the invariants hold — round after round, with fresh
   variables created and retired under the same DSM. *)
let test_retire_after_remapping () =
  let module At = Diva_core.Access_tree in
  let net, dsm =
    make_dsm ~rows:4 ~cols:4 (Dsm.access_tree ~arity:2 ~remap_threshold:8 ())
  in
  let at = Option.get (Dsm.access_tree_handle dsm) in
  let deco = At.deco at in
  let default tv tnode =
    Diva_mesh.Embedding.place_lazy Diva_mesh.Embedding.Regular deco
      ~seed:tv.Diva_core.Types.seed tnode
  in
  let moved tv =
    List.exists
      (fun tnode -> At.place at tv tnode <> default tv tnode)
      (List.init deco.Deco.num_tree_nodes Fun.id)
  in
  let rounds = 4 in
  let vars = Array.make rounds None in
  let checked = ref 0 in
  run_procs net (fun p ->
      for round = 0 to rounds - 1 do
        if p = 0 then
          vars.(round) <-
            Some (Dsm.create_var dsm ~owner:(round mod 16) ~size:64 round);
        Dsm.barrier dsm p;
        let v = Option.get vars.(round) in
        let remaps0 = Dsm.remaps dsm in
        for i = 1 to 3 do
          ignore (Dsm.read dsm p v);
          Dsm.barrier dsm p;
          if p = (round + i) mod 16 then Dsm.write dsm p v (round + i);
          Dsm.barrier dsm p
        done;
        if p = 0 then begin
          let tv = Dsm.typed v in
          Alcotest.(check bool) "remapped before retire" true
            (Dsm.remaps dsm > remaps0 && moved tv);
          Dsm.retire_var dsm v;
          Alcotest.(check bool) "default placements after retire" false
            (moved tv);
          Alcotest.(check (list int)) "only the owner's leaf holds a copy"
            [ deco.Deco.leaf_of_proc.(tv.Diva_core.Types.owner) ]
            (At.copy_holders at tv);
          (match At.validate at tv with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          incr checked
        end;
        Dsm.barrier dsm p
      done);
  Alcotest.(check int) "every round checked" rounds !checked

let test_sim_events_counted () =
  let net = make_net ~rows:2 ~cols:2 () in
  Network.spawn net 0 (fun () -> Network.compute net 0 5.0);
  Network.run net;
  Alcotest.(check bool) "events executed" true
    (Diva_simnet.Sim.events_executed (Network.sim net) >= 2)

let suite =
  [
    Alcotest.test_case "mesh argument errors" `Quick test_mesh_argument_errors;
    Alcotest.test_case "decomposition argument errors" `Quick
      test_decomposition_argument_errors;
    Alcotest.test_case "dsm argument errors" `Quick test_dsm_argument_errors;
    Alcotest.test_case "unlock without lock" `Quick test_unlock_without_lock;
    Alcotest.test_case "negative charge rejected" `Quick
      test_network_compute_negative;
    Alcotest.test_case "zero-size variable" `Quick test_zero_size_variable;
    Alcotest.test_case "large variable timing" `Quick test_large_variable_times;
    Alcotest.test_case "many small variables" `Quick test_many_small_variables;
    Alcotest.test_case "retire and reuse" `Quick test_retire_and_reuse_memory;
    Alcotest.test_case "retire after remapping" `Quick
      test_retire_after_remapping;
    Alcotest.test_case "sim event counter" `Quick test_sim_events_counted;
  ]
