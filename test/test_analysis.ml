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

(* Oracle for [Analysis.decompose_chain]: the quadratic boundary sweep,
   which scans every segment at every boundary point. *)
let oracle_decompose_chain (ov : Analysis.overheads) ~t0 ~dur
    (links : Analysis.chain_link list) =
  let t1 = t0 +. dur in
  let segs = ref [] in
  let add label a b =
    let a = Float.max a t0 and b = Float.min b t1 in
    if b > a then segs := (label, a, b) :: !segs
  in
  List.iter
    (fun (l : Analysis.chain_link) ->
      if l.cl_local then
        add `Cpu (l.cl_inject -. ov.local_overhead) l.cl_inject
      else begin
        add `Startup (l.cl_inject -. ov.send_overhead) l.cl_inject;
        for i = 0 to (Array.length l.cl_xfers / 2) - 1 do
          add `Transfer l.cl_xfers.(2 * i) l.cl_xfers.((2 * i) + 1)
        done;
        match l.cl_handled with
        | Some h -> add `Startup (h -. ov.recv_overhead) h
        | None -> ()
      end)
    links;
  let pts =
    List.sort_uniq Float.compare
      (t0 :: t1 :: List.concat_map (fun (_, a, b) -> [ a; b ]) !segs)
  in
  let startup = ref 0.0 and transfer = ref 0.0 and cpu = ref 0.0 in
  let rec sweep = function
    | a :: (b :: _ as rest) ->
        let mid = (a +. b) /. 2.0 in
        let active l =
          List.exists (fun (l', x, y) -> l' = l && x <= mid && mid < y) !segs
        in
        let d = b -. a in
        if active `Startup then startup := !startup +. d
        else if active `Transfer then transfer := !transfer +. d
        else if active `Cpu then cpu := !cpu +. d;
        sweep rest
    | _ -> ()
  in
  sweep pts;
  {
    Analysis.startup_us = !startup;
    transfer_us = !transfer;
    queue_us = dur -. (!startup +. !transfer +. !cpu);
    cpu_us = !cpu;
  }

let rec ulps n x =
  if n > 0 then ulps (n - 1) (Float.succ x)
  else if n < 0 then ulps (n + 1) (Float.pred x)
  else x

(* Random chains. Every time is an anchor on an integer grid (so overhead
   subtractions land on other anchors and endpoints repeat) nudged by up
   to two ulps (so adjacent floats appear, some with a midpoint that
   rounds up to the right end), at magnitudes with different ulp sizes.
   The window draws from the same anchors, so segments clip at both ends,
   and local (cpu), startup and transfer segments overlap freely. *)
let gen_chain =
  let open QCheck.Gen in
  let* base = oneofl [ 0.0; 1024.0; 3e6; 1e15 ] in
  let time =
    let+ k = int_range 0 30 and+ nudge = int_range (-2) 2 in
    ulps nudge (base +. float_of_int k)
  in
  let overhead =
    let+ k = int_range 0 4 and+ nudge = int_range (-1) 1 in
    ulps nudge (float_of_int k)
  in
  let link =
    let* local = bool and* inject = time in
    if local then
      return
        { Analysis.cl_local = true; cl_inject = inject;
          cl_handled = Some inject; cl_xfers = [||] }
    else
      let+ handled = opt time
      and+ xfers = list_size (int_range 0 4) (pair time time) in
      { Analysis.cl_local = false; cl_inject = inject; cl_handled = handled;
        cl_xfers =
          Array.of_list
            (List.concat_map
               (fun (a, b) -> [ Float.min a b; Float.max a b ])
               xfers) }
  in
  let+ send = overhead and+ recv = overhead and+ local = overhead
  and+ a = time and+ b = time
  and+ links = list_size (int_range 0 12) link in
  ( { Analysis.send_overhead = send; recv_overhead = recv;
      local_overhead = local },
    Float.min a b,
    Float.max a b -. Float.min a b,
    links )

let print_chain ((ov : Analysis.overheads), t0, dur, links) =
  let link (l : Analysis.chain_link) =
    Printf.sprintf "{local=%b inject=%h handled=%s xfers=[%s]}" l.cl_local
      l.cl_inject
      (Option.fold ~none:"-" ~some:(Printf.sprintf "%h") l.cl_handled)
      (String.concat ";"
         (Array.to_list (Array.map (Printf.sprintf "%h") l.cl_xfers)))
  in
  Printf.sprintf "ov=(%h,%h,%h) t0=%h dur=%h links=[%s]" ov.send_overhead
    ov.recv_overhead ov.local_overhead t0 dur
    (String.concat " " (List.map link links))

let cost_bits (c : Analysis.cost) =
  List.map Int64.bits_of_float
    [ c.startup_us; c.transfer_us; c.queue_us; c.cpu_us ]

(* The cursor sweep returns the oracle's four terms bit for bit, and they
   still sum to the blocking latency with no negative term. *)
let prop_sweep_matches_oracle =
  QCheck.Test.make ~name:"cursor sweep = quadratic sweep, bit for bit"
    ~count:2000
    (QCheck.make ~print:print_chain gen_chain)
    (fun (ov, t0, dur, links) ->
      let got = Analysis.decompose_chain ov ~t0 ~dur links in
      let want = oracle_decompose_chain ov ~t0 ~dur links in
      if cost_bits got <> cost_bits want then
        QCheck.Test.fail_reportf "got %s, oracle %s" (Analysis.render_cost got)
          (Analysis.render_cost want);
      List.iter
        (fun v -> if v < -.eps then QCheck.Test.fail_reportf "negative %g" v)
        [ got.startup_us; got.transfer_us; got.queue_us; got.cpu_us ];
      Float.abs (Analysis.total_cost got -. dur) <= eps *. Float.max 1.0 dur)

(* The case the midpoint rule exists for: on adjacent floats a < b whose
   midpoint rounds up to b, a segment starting at b is active on [a, b]
   by the midpoint test (but not by x <= a && y >= b), so [a, b] counts as
   transfer. *)
let test_sweep_adjacent_floats () =
  let rec find x =
    let b = Float.succ x in
    if (x +. b) /. 2.0 = b then x else find b
  in
  let a = find 1e15 in
  let b = Float.succ a in
  let ov =
    { Analysis.send_overhead = 1.0; recv_overhead = 1.0; local_overhead = 1.0 }
  in
  let links =
    [ { Analysis.cl_local = false; cl_inject = a; cl_handled = None;
        cl_xfers = [| b; b +. 4.0 |] } ]
  in
  let got = Analysis.decompose_chain ov ~t0:(a -. 2.0) ~dur:8.0 links in
  Alcotest.(check (list int64))
    "bit-equal to the oracle"
    (cost_bits (oracle_decompose_chain ov ~t0:(a -. 2.0) ~dur:8.0 links))
    (cost_bits got);
  Alcotest.(check (float 0.0)) "[a, b] is transfer" (b +. 4.0 -. a)
    got.Analysis.transfer_us

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
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      prop_sweep_matches_oracle;
    Alcotest.test_case "sweep keeps the midpoint rule on adjacent floats"
      `Quick test_sweep_adjacent_floats;
  ]
