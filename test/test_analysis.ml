(* Tests for causal span trees (Diva_obs.Spans) and critical-path cost
   attribution (Diva_obs.Analysis): the decomposition must sum exactly to
   the measured blocking latency for every transaction of every app under
   both strategies, and causal chains must be contiguous in time. *)

module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Dsm = Diva_core.Dsm
module Runner = Diva_harness.Runner
module Barnes_hut = Diva_apps.Barnes_hut
module Trace = Diva_obs.Trace
module Spans = Diva_obs.Spans
module Analysis = Diva_obs.Analysis

let eps = 1e-6

(* Run one app with causal tracing on and return (overheads, events). *)
let traced_events run =
  let trace = Trace.create () in
  let obs = { Runner.null_obs with Runner.obs_trace = trace } in
  let captured = ref None in
  let on_net net = captured := Some net in
  run ~obs ~on_net;
  let net = Option.get !captured in
  let m = Network.machine net in
  let ov =
    { Analysis.send_overhead = m.Machine.send_overhead;
      recv_overhead = m.Machine.recv_overhead;
      local_overhead = m.Machine.local_overhead }
  in
  (ov, Trace.events trace)

let traced_run run =
  let ov, events = traced_events run in
  (ov, Spans.build events)

(* Every app of the paper, small enough for the test suite. *)
let apps =
  [
    ( "matmul",
      fun strategy ~obs ~on_net ->
        ignore
          (Runner.run_matmul ~obs ~on_net ~rows:4 ~cols:4 ~block:64
             (Runner.Strategy strategy)) );
    ( "bitonic",
      fun strategy ~obs ~on_net ->
        ignore
          (Runner.run_bitonic_nd ~obs ~on_net ~dims:[| 4; 4 |] ~keys:32
             (Runner.Strategy strategy)) );
    ( "barnes-hut",
      fun strategy ~obs ~on_net ->
        let cfg =
          { (Barnes_hut.default_config ~nbodies:48) with Barnes_hut.steps = 2 }
        in
        ignore
          (Runner.run_barnes_hut_nd ~obs ~on_net ~dims:[| 2; 2 |] ~cfg strategy)
    );
  ]

let both_strategies =
  [ ("fixed-home", Dsm.Fixed_home); ("4-ary", Dsm.access_tree ~arity:4 ()) ]

(* The tentpole invariant: startup + transfer + queue + cpu = t_dur exactly,
   and no term is negative, for every transaction of every app x strategy. *)
let test_decomposition_sums () =
  List.iter
    (fun (app, run) ->
      List.iter
        (fun (sname, strategy) ->
          let ov, spans = traced_run (run strategy) in
          let txns = Spans.txns spans in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s has transactions" app sname)
            true (txns <> []);
          List.iter
            (fun (t : Spans.txn) ->
              let c = Analysis.decompose ov spans t in
              let where =
                Printf.sprintf "%s/%s txn %d" app sname t.Spans.t_id
              in
              List.iter
                (fun (term, v) ->
                  if v < -.eps then
                    Alcotest.failf "%s: negative %s (%g)" where term v)
                [ ("startup", c.Analysis.startup_us);
                  ("transfer", c.Analysis.transfer_us);
                  ("queue", c.Analysis.queue_us);
                  ("cpu", c.Analysis.cpu_us) ];
              let total = Analysis.total_cost c in
              let tol = eps *. Float.max 1.0 t.Spans.t_dur in
              if Float.abs (total -. t.Spans.t_dur) > tol then
                Alcotest.failf "%s: decomposition %g <> latency %g" where
                  total t.Spans.t_dur)
            txns)
        both_strategies)
    apps

(* Handlers are instantaneous in simulated time, so along a completing
   chain each message is issued exactly when its parent is handled, every
   chain message belongs to the transaction, and the chain ends at the
   message that unblocked the fiber. *)
let test_chain_contiguity () =
  List.iter
    (fun (sname, strategy) ->
      let _, spans = traced_run ((List.assoc "matmul" apps) strategy) in
      List.iter
        (fun (t : Spans.txn) ->
          let chain = Spans.chain spans t in
          List.iter
            (fun (m : Spans.msg) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: chain msg in txn" sname)
                t.Spans.t_id m.Spans.txn)
            chain;
          (match List.rev chain with
          | last :: _ ->
              Alcotest.(check int)
                (Printf.sprintf "%s: chain ends at completer" sname)
                t.Spans.t_completed_by last.Spans.id
          | [] -> ());
          let rec pairs = function
            | (a : Spans.msg) :: (b :: _ as rest) ->
                (match a.Spans.handled with
                | Some h ->
                    Alcotest.(check (float eps))
                      (Printf.sprintf "%s: child issued at parent handler"
                         sname)
                      h b.Spans.sent
                | None ->
                    Alcotest.failf "%s: chain crosses an unhandled message"
                      sname);
                pairs rest
            | _ -> ()
          in
          pairs chain)
        (Spans.txns spans))
    both_strategies

(* Batch summary of one app run (the oracle {!Diva_obs.Streaming} is
   compared against): traffic-profile and cost properties are checked on
   what [divasim analyze] reports. *)
let summarized ?num_windows run =
  let ov, events = traced_events run in
  (Analysis.summarize ?num_windows ov events, Spans.build events)

(* The critical-path timeline starts at 0 and covers gaps as cpu, so its
   total equals the makespan. *)
let test_critical_path_covers_makespan () =
  let s, _ =
    summarized ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  match s.Analysis.sm_critical with
  | None -> Alcotest.fail "no critical path on a traced run"
  | Some c ->
      Alcotest.(check bool) "has transactions" true (c.Analysis.sc_txns > 0);
      Alcotest.(check (float 1e-3))
        "timeline total = makespan" c.Analysis.sc_end
        (Analysis.total_cost c.Analysis.sc_cost)

(* Level rows partition the messages; link-bytes are bytes x crossings. *)
let test_level_profile_partitions () =
  let s, spans =
    summarized ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  let rows = s.Analysis.sm_levels in
  let msgs = List.fold_left (fun a r -> a + r.Analysis.lv_msgs) 0 rows in
  Alcotest.(check int) "levels partition msgs" (Spans.num_msgs spans) msgs;
  Alcotest.(check int) "summary counts the same msgs" s.Analysis.sm_num_msgs
    msgs;
  let tagged =
    List.exists (fun r -> r.Analysis.lv_level >= 0 && r.Analysis.lv_msgs > 0)
      rows
  in
  Alcotest.(check bool) "access tree tags levels" true tagged

(* Window attribution is overlap-proportional, so summed over all windows
   it conserves every occupancy's bytes. *)
let test_windows_conserve_bytes () =
  let s, spans =
    summarized ~num_windows:5 ((List.assoc "bitonic" apps) Dsm.Fixed_home)
  in
  let expect =
    List.fold_left
      (fun a (m : Spans.msg) ->
        a +. float_of_int (m.Spans.size * List.length m.Spans.xfers))
      0.0 (Spans.msgs spans)
  in
  let got =
    List.fold_left
      (fun a w ->
        List.fold_left (fun a (_, b) -> a +. b) a w.Analysis.w_link_bytes)
      0.0 s.Analysis.sm_windows
  in
  Alcotest.(check int) "window count" 5 (List.length s.Analysis.sm_windows);
  Alcotest.(check bool) "windowed bytes conserve link traffic" true
    (Float.abs (got -. expect) <= 1e-6 *. Float.max 1.0 expect)

(* The op table groups the same transactions the decomposition walks. *)
let test_op_table_counts () =
  let s, spans = summarized ((List.assoc "matmul" apps) Dsm.Fixed_home) in
  let rows = s.Analysis.sm_ops in
  let n = List.fold_left (fun a r -> a + r.Analysis.or_count) 0 rows in
  Alcotest.(check int) "op rows partition txns"
    (List.length (Spans.txns spans))
    n;
  Alcotest.(check int) "summary counts the same txns" s.Analysis.sm_num_txns n;
  List.iter
    (fun r ->
      Alcotest.(check bool) "mean <= max" true
        (r.Analysis.or_mean_us <= r.Analysis.or_max_us +. eps))
    rows

(* analysis.json must be valid JSON and round-trip through the parser. *)
let test_to_json_roundtrip () =
  let s, _ =
    summarized ~num_windows:3
      ((List.assoc "matmul" apps) (Dsm.access_tree ~arity:4 ()))
  in
  let j =
    Analysis.summary_to_json
      ~meta:[ ("app", Diva_obs.Json.String "matmul") ]
      s
  in
  let text = Diva_obs.Json.to_string j in
  match Diva_obs.Json.of_string text with
  | Error e -> Alcotest.failf "analysis.json does not parse: %s" e
  | Ok parsed ->
      Alcotest.(check string) "re-printing is byte-stable" text
        (Diva_obs.Json.to_string parsed);
      (match parsed with
      | Diva_obs.Json.Obj fields ->
          List.iter
            (fun k ->
              Alcotest.(check bool) (k ^ " present") true
                (List.mem_assoc k fields))
            [ "app"; "num_txns"; "num_msgs"; "end_us"; "critical_path";
              "levels"; "top_links"; "windows"; "ops" ]
      | _ -> Alcotest.fail "analysis.json is not an object")

let suite =
  [
    Alcotest.test_case "decomposition sums to latency" `Quick
      test_decomposition_sums;
    Alcotest.test_case "chains are contiguous" `Quick test_chain_contiguity;
    Alcotest.test_case "critical path covers makespan" `Quick
      test_critical_path_covers_makespan;
    Alcotest.test_case "level profile partitions messages" `Quick
      test_level_profile_partitions;
    Alcotest.test_case "windows conserve bytes" `Quick
      test_windows_conserve_bytes;
    Alcotest.test_case "op table partitions transactions" `Quick
      test_op_table_counts;
    Alcotest.test_case "analysis.json round-trips" `Quick
      test_to_json_roundtrip;
  ]
