(* Workload engine: synthetic generator determinism, trace
   record/round-trip/replay fidelity, sampler distributions, spec
   validation. *)

module Runner = Diva_harness.Runner
module Trace = Diva_obs.Trace
module Spec = Diva_workload.Spec
module Sampler = Diva_workload.Sampler
module Generator = Diva_workload.Generator
module Streaming = Diva_obs.Streaming
module Replay = Diva_workload.Replay
module Latency = Diva_workload.Latency
module Prng = Diva_util.Prng

let strategy_4ary = Diva_core.Dsm.access_tree ~arity:4 ()

let small_spec =
  Spec.make ~num_vars:64 ~var_size:32
    ~phases:[ Spec.phase ~read_ratio:0.8 60 ]
    ~barrier_every:20 ~lock_every:15 ~seed:5 ()

let traced_obs () =
  let tr = Trace.create () in
  (tr, { Runner.null_obs with Runner.obs_trace = tr })

let check_meas name (a : Runner.measurements) (b : Runner.measurements) =
  Alcotest.(check int) (name ^ ": total msgs") a.Runner.total_msgs b.Runner.total_msgs;
  Alcotest.(check int) (name ^ ": total bytes") a.Runner.total_bytes b.Runner.total_bytes;
  Alcotest.(check int) (name ^ ": congestion msgs") a.Runner.congestion_msgs
    b.Runner.congestion_msgs;
  Alcotest.(check int) (name ^ ": congestion bytes") a.Runner.congestion_bytes
    b.Runner.congestion_bytes;
  Alcotest.(check (float 0.0)) (name ^ ": time") a.Runner.time b.Runner.time;
  Alcotest.(check int) (name ^ ": startups") a.Runner.startups b.Runner.startups

let gcel_overheads =
  let m = Diva_simnet.Machine.gcel in
  { Diva_obs.Analysis.send_overhead = m.Diva_simnet.Machine.send_overhead;
    recv_overhead = m.Diva_simnet.Machine.recv_overhead;
    local_overhead = m.Diva_simnet.Machine.local_overhead }

let with_temp f =
  let path = Filename.temp_file "diva_record" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_text path = In_channel.with_open_bin path In_channel.input_all

let write_text path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let read_ok path =
  match Replay.read path with
  | Ok r -> r
  | Error e -> Alcotest.failf "cannot read %s: %s" path e

(* Record [run]'s DSM access stream the way [--record] does — streamed
   into a file through {!Replay.recorder} — and return the run's result,
   the file's text and the recording read back from it. *)
let recorded ?(app = "test") ?(strategy = "4-ary") ?(params = []) ~dims ~seed
    run =
  with_temp (fun path ->
      let oc = open_out path in
      let r =
        Replay.recorder oc
          (Streaming.make_header ~params ~app ~dims ~strategy ~seed
             ~overheads:gcel_overheads ())
      in
      let result =
        run { Runner.null_obs with Runner.obs_trace = Trace.stream (Replay.record r) }
      in
      close_out oc;
      (result, read_text path, read_ok path))

(* Same workload spec + seed => identical record, twice. *)
let test_generator_determinism () =
  let capture () =
    recorded ~dims:[| 4; 4 |] ~seed:Spec.(small_spec.seed) (fun obs ->
        Generator.run ~obs ~dims:[| 4; 4 |] ~strategy:strategy_4ary small_spec)
  in
  let r1, t1, _ = capture () in
  let r2, t2, _ = capture () in
  check_meas "rerun" r1.Generator.measurements r2.Generator.measurements;
  Alcotest.(check string) "identical serialized trace" t1 t2;
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 1000)

(* The generator issues exactly the configured number of data ops. *)
let test_generator_op_count () =
  let sink, obs = traced_obs () in
  ignore
    (Generator.run ~obs ~dims:[| 4; 4 |] ~strategy:strategy_4ary small_spec
      : Generator.result);
  let t = Replay.of_events ~dims:[| 4; 4 |] ~seed:0 (Trace.events sink) in
  let count p = List.length (List.filter p t.Replay.ops) in
  (* 16 procs x 60 ops; lock/unlock/barriers come on top. *)
  Alcotest.(check int) "data ops" (16 * 60)
    (count (fun o ->
         match o.Replay.o_op with Trace.Read | Trace.Write -> true | _ -> false));
  Alcotest.(check int) "locks (every 15th of 60)" (16 * 4)
    (count (fun o -> o.Replay.o_op = Trace.Lock))

(* Recording a matmul run to a file and replaying it closed-loop under the
   same strategy and seed reproduces the original Link_stats totals
   exactly. *)
let replay_roundtrip strategy =
  let m0, _, t =
    recorded ~dims:[| 4; 4 |] ~seed:17 (fun obs ->
        Runner.run_matmul ~seed:17 ~obs ~rows:4 ~cols:4 ~block:64
          (Runner.Strategy strategy))
  in
  Alcotest.(check int) "all vars declared" 16 (List.length t.Replay.decls);
  let r = Replay.run ~mode:Replay.Closed_loop ~strategy t in
  check_meas "replay" m0 r.Generator.measurements

let test_replay_matmul_4ary () = replay_roundtrip strategy_4ary
let test_replay_matmul_fixed_home () = replay_roundtrip Diva_core.Dsm.Fixed_home

(* Replay of a synthetic workload is also exact: the generator's fibers do
   no untraced work, so the closed-loop replay is the same program. *)
let test_replay_synthetic () =
  let r0, _, t =
    recorded ~dims:[| 4; 4 |] ~seed:Spec.(small_spec.seed) (fun obs ->
        Generator.run ~obs ~dims:[| 4; 4 |] ~strategy:strategy_4ary small_spec)
  in
  let r = Replay.run ~strategy:strategy_4ary t in
  check_meas "synthetic replay" r0.Generator.measurements r.Generator.measurements;
  Alcotest.(check int) "same op count" r0.Generator.latency.Latency.ops
    r.Generator.latency.Latency.ops

(* Open-loop replay re-inserts recorded gaps: replaying a think-heavy
   workload open-loop takes at least as long as closed-loop. *)
let test_open_loop_slower () =
  let spec =
    Spec.make ~num_vars:32 ~phases:[ Spec.phase ~think:50.0 30 ] ~seed:7 ()
  in
  let sink, obs = traced_obs () in
  ignore
    (Generator.run ~obs ~dims:[| 2; 2 |] ~strategy:strategy_4ary spec
      : Generator.result);
  let t = Replay.of_events ~dims:[| 2; 2 |] ~seed:7 (Trace.events sink) in
  let closed = Replay.run ~mode:Replay.Closed_loop ~strategy:strategy_4ary t in
  let open_ = Replay.run ~mode:Replay.Open_loop ~strategy:strategy_4ary t in
  Alcotest.(check bool)
    (Printf.sprintf "open (%.0f us) > closed (%.0f us)"
       open_.Generator.measurements.Runner.time
       closed.Generator.measurements.Runner.time)
    true
    (open_.Generator.measurements.Runner.time
    > closed.Generator.measurements.Runner.time);
  (* And the open-loop run is at least as long as the recording. *)
  Alcotest.(check bool) "open >= recorded duration" true
    (open_.Generator.measurements.Runner.time
    >= List.fold_left
         (fun acc (o : Replay.op) -> Float.max acc o.Replay.o_ts)
         0.0 t.Replay.ops)

(* One run, three views of its DSM stream: the in-memory event list, the
   DSM-only record file and the full --events file must all yield the same
   recording, and the record holds nothing but declarations and accesses. *)
let test_trace_roundtrip () =
  with_temp (fun events_path ->
      let events_oc = open_out events_path in
      let header =
        Streaming.make_header ~app:"workload" ~dims:[| 2; 2 |]
          ~strategy:"4-ary" ~seed:5 ~overheads:gcel_overheads ()
      in
      let full = Streaming.file_sink events_oc header in
      let (_, text, from_record), buffered =
        let buffered = ref [] in
        let r =
          recorded ~app:"workload" ~dims:[| 2; 2 |] ~seed:5 (fun obs ->
              let sink =
                Trace.with_listener obs.Runner.obs_trace (fun e ->
                    buffered := e :: !buffered;
                    Trace.emit full e)
              in
              Generator.run ~obs:{ obs with Runner.obs_trace = sink }
                ~dims:[| 2; 2 |] ~strategy:strategy_4ary small_spec)
        in
        (r, List.rev !buffered)
      in
      close_out events_oc;
      let in_memory = Replay.of_events ~dims:[| 2; 2 |] ~seed:5 buffered in
      Alcotest.(check bool) "record file = in-memory projection" true
        (from_record = in_memory);
      Alcotest.(check bool) "full event trace replays the same stream" true
        (read_ok events_path = in_memory);
      Alcotest.(check int) "one line per decl and op, plus the header"
        (1 + List.length in_memory.Replay.decls
        + List.length in_memory.Replay.ops)
        (List.length (String.split_on_char '\n' (String.trim text)));
      match String.split_on_char '\n' text with
      | h :: _ -> (
          match Streaming.parse_header h with
          | Ok h ->
              Alcotest.(check bool) "record header is DSM-only" true
                (Streaming.is_dsm_only h);
              Alcotest.(check bool) "events header is not" false
                (Streaming.is_dsm_only header)
          | Error e -> Alcotest.fail e)
      | [] -> Alcotest.fail "empty record")

let expect_error ~what ~needles = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e ->
      List.iter
        (fun needle ->
          let n = String.length needle and m = String.length e in
          let rec found i =
            i + n <= m && (String.sub e i n = needle || found (i + 1))
          in
          if not (found 0) then
            Alcotest.failf "%s: error %S does not mention %S" what e needle)
        needles

(* A record that fails to load names the file and the offending line; a
   file in the retired diva-dsm-trace format says to re-record it. *)
let test_trace_errors () =
  let _, text, _ =
    recorded ~dims:[| 2; 2 |] ~seed:5 (fun obs ->
        Generator.run ~obs ~dims:[| 2; 2 |] ~strategy:strategy_4ary small_spec)
  in
  with_temp (fun path ->
      let lines = String.split_on_char '\n' text in
      let keep = List.filteri (fun i _ -> i < 30) lines in
      let line31 = List.nth lines 30 in
      write_text path
        (String.concat "\n" keep ^ "\n"
        ^ String.sub line31 0 (String.length line31 / 2));
      expect_error ~what:"truncated record" ~needles:[ path; "line 31" ]
        (Replay.read path);
      write_text path
        "{\"format\":\"diva-dsm-trace\",\"version\":1,\"dims\":[4,4],\"seed\":11}\n";
      expect_error ~what:"old format" ~needles:[ path; "diva-dsm-trace"; "--record" ]
        (Replay.read path);
      expect_error ~what:"old format probe" ~needles:[ "diva-dsm-trace"; "--record" ]
        (Streaming.probe path);
      write_text path "{\"format\":\"something-else\",\"version\":1}\n";
      expect_error ~what:"foreign format" ~needles:[ "something-else" ]
        (Replay.read path);
      write_text path
        "{\"format\":\"diva-event-trace\",\"version\":99,\"dims\":[2,2]}\n";
      expect_error ~what:"future version" ~needles:[ "99" ] (Replay.read path);
      write_text path "not json at all\n";
      expect_error ~what:"not json" ~needles:[ path ] (Replay.read path);
      write_text path "";
      expect_error ~what:"empty" ~needles:[ "empty" ] (Replay.read path));
  expect_error ~what:"missing file" ~needles:[ "no such file" ]
    (Replay.read "/nonexistent/trace.jsonl")

(* A record carries no messages: offline analysis must refuse it instead
   of reporting an empty run. *)
let test_offline_refuses_record () =
  let _, text, _ =
    recorded ~dims:[| 2; 2 |] ~seed:5 (fun obs ->
        Generator.run ~obs ~dims:[| 2; 2 |] ~strategy:strategy_4ary small_spec)
  in
  with_temp (fun path ->
      write_text path text;
      expect_error ~what:"offline analysis of a record"
        ~needles:[ path; "DSM events only" ]
        (Streaming.analyze_file path))

(* Zipf sampling: rank-0 keys dominate more as the exponent grows; uniform
   sampling covers the key space evenly. *)
let sample_counts spec dims draws =
  let mesh = Diva_mesh.Mesh.create_nd ~dims in
  let sampler = Sampler.create mesh spec in
  let rng = Prng.create ~seed:99 in
  let counts = Array.make Spec.(spec.num_vars) 0 in
  for _ = 1 to draws do
    let k = Sampler.draw sampler ~proc:0 rng in
    counts.(k) <- counts.(k) + 1
  done;
  counts

let test_sampler_zipf_skew () =
  let n = 100 and draws = 20_000 in
  let top_share skew =
    let spec = Spec.make ~num_vars:n ~popularity:(Spec.Zipf skew) () in
    let counts = sample_counts spec [| 2; 2 |] draws in
    float_of_int counts.(0) /. float_of_int draws
  in
  let s0 = top_share 0.0 and s09 = top_share 0.9 and s12 = top_share 1.2 in
  Alcotest.(check bool)
    (Printf.sprintf "zipf 0 ~ uniform (top %.3f)" s0)
    true
    (s0 < 0.03);
  Alcotest.(check bool)
    (Printf.sprintf "skew monotone (%.3f < %.3f < %.3f)" s0 s09 s12)
    true
    (s0 < s09 && s09 < s12);
  Alcotest.(check bool) "zipf 1.2 is heavily skewed" true (s12 > 0.15)

let test_sampler_hot_cold () =
  let n = 100 in
  let spec =
    Spec.make ~num_vars:n
      ~popularity:(Spec.Hot_cold { hot_fraction = 0.1; hot_weight = 0.9 })
      ()
  in
  let counts = sample_counts spec [| 2; 2 |] 20_000 in
  let hot = Array.fold_left ( + ) 0 (Array.sub counts 0 10) in
  let share = float_of_int hot /. 20_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "hot 10%% of keys draw ~90%% of accesses (got %.2f)" share)
    true
    (share > 0.85 && share < 0.95)

let test_sampler_locality () =
  let dims = [| 4; 4 |] in
  let mesh = Diva_mesh.Mesh.create_nd ~dims in
  let procs = 16 in
  let spec = Spec.make ~num_vars:64 ~locality:Spec.Proc_local () in
  let sampler = Sampler.create mesh spec in
  let rng = Prng.create ~seed:3 in
  for p = 0 to procs - 1 do
    for _ = 1 to 50 do
      let k = Sampler.draw sampler ~proc:p rng in
      Alcotest.(check int) "local key homed on proc" p (k mod procs)
    done
  done;
  let spec = Spec.make ~num_vars:64 ~locality:(Spec.Submesh 1) () in
  let sampler = Sampler.create mesh spec in
  for p = 0 to procs - 1 do
    for _ = 1 to 50 do
      let k = Sampler.draw sampler ~proc:p rng in
      Alcotest.(check bool) "submesh key within radius" true
        (Diva_mesh.Mesh.distance mesh p (k mod procs) <= 1)
    done
  done;
  (* Too few keys for Proc_local on 16 procs: clear error. *)
  match
    Sampler.create mesh (Spec.make ~num_vars:8 ~locality:Spec.Proc_local ())
  with
  | exception Invalid_argument _ -> ()
  | (_ : Sampler.t) -> Alcotest.fail "empty candidate set not rejected"

(* The linear-time construction must produce exactly the right candidate
   set: every key homed inside the Manhattan ball and no other. Uniform
   popularity plus enough draws makes the set fully observable. *)
let test_sampler_candidate_sets () =
  let dims = [| 4; 4; 4 |] in
  let mesh = Diva_mesh.Mesh.create_nd ~dims in
  let procs = 64 in
  let num_vars = 256 in
  let r = 1 in
  let sampler =
    Sampler.create mesh (Spec.make ~num_vars ~locality:(Spec.Submesh r) ())
  in
  let rng = Prng.create ~seed:11 in
  for p = 0 to procs - 1 do
    let expected = Hashtbl.create 32 in
    for k = 0 to num_vars - 1 do
      if Diva_mesh.Mesh.distance mesh p (k mod procs) <= r then
        Hashtbl.replace expected k ()
    done;
    let seen = Hashtbl.create 32 in
    for _ = 1 to 2_000 do
      let k = Sampler.draw sampler ~proc:p rng in
      if not (Hashtbl.mem expected k) then
        Alcotest.failf "proc %d drew key %d homed outside radius %d" p k r;
      Hashtbl.replace seen k ()
    done;
    Alcotest.(check int) "uniform draws cover the whole candidate set"
      (Hashtbl.length expected) (Hashtbl.length seen)
  done;
  (* Construction stays cheap at sizes where the old per-proc scan over
     every key would hurt; draws remain correctly homed. *)
  let mesh8 = Diva_mesh.Mesh.create_nd ~dims:[| 8; 8 |] in
  let big =
    Sampler.create mesh8
      (Spec.make ~num_vars:50_000 ~locality:Spec.Proc_local ())
  in
  for p = 0 to 63 do
    let k = Sampler.draw big ~proc:p rng in
    Alcotest.(check int) "big sampler keeps keys home" p (k mod 64)
  done

let test_spec_validation () =
  let bad spec =
    match Spec.validate spec with
    | Error (_ : string) -> ()
    | Ok () -> Alcotest.fail "invalid spec accepted"
  in
  (match Spec.validate (Spec.make ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("default spec rejected: " ^ e));
  bad (Spec.make ~num_vars:0 ());
  bad (Spec.make ~var_size:0 ());
  bad (Spec.make ~popularity:(Spec.Zipf (-1.0)) ());
  bad (Spec.make ~popularity:(Spec.Zipf Float.nan) ());
  bad
    (Spec.make
       ~popularity:(Spec.Hot_cold { hot_fraction = 1.5; hot_weight = 0.5 })
       ());
  bad (Spec.make ~locality:(Spec.Submesh 0) ());
  bad (Spec.make ~phases:[] ());
  bad (Spec.make ~phases:[ Spec.phase ~read_ratio:1.5 10 ] ());
  bad (Spec.make ~phases:[ Spec.phase ~think:(-1.0) 10 ] ());
  bad (Spec.make ~phases:[ Spec.phase ~burst:(0, 10.0) 10 ] ())

(* The latency report is consistent with the run it measures. *)
let test_latency_report () =
  let r = Generator.run ~dims:[| 4; 4 |] ~strategy:strategy_4ary small_spec in
  let l = r.Generator.latency in
  Alcotest.(check int) "every data op sampled" (16 * 60) l.Latency.ops;
  Alcotest.(check bool) "percentiles ordered" true
    (l.Latency.p50 <= l.Latency.p95
    && l.Latency.p95 <= l.Latency.p99
    && l.Latency.p99 <= l.Latency.max);
  Alcotest.(check bool) "max latency below run time" true
    (l.Latency.max <= r.Generator.measurements.Runner.time);
  Alcotest.(check bool) "throughput positive" true (Latency.ops_per_sec l > 0.0);
  let fields = Latency.to_fields l in
  Alcotest.(check bool) "fields carry p99" true
    (List.mem_assoc "lat_p99_us" fields)

(* Golden-trace regression: the committed record in test/data must be
   reproduced byte for byte by today's generator, and its closed-loop
   4-ary replay must give the pinned measurements — which also proves the
   record holds every declaration and operation. Regenerate with
     divasim workload --mesh 4x4 --strategy 4-ary --vars 32 --var-size 32 \
       --ops 40 --read-ratio 0.8 --lock-every 8 --seed 11 --record FILE
   if an intentional behaviour change invalidates it. *)
let golden_path = "data/golden_workload_4x4.jsonl"

let test_golden_trace () =
  let spec =
    Spec.make ~num_vars:32 ~var_size:32 ~lock_every:8
      ~phases:[ Spec.phase ~read_ratio:0.8 40 ]
      ~seed:11 ()
  in
  let _, text, _ =
    recorded ~app:"workload"
      ~strategy:(Diva_core.Dsm.strategy_name strategy_4ary)
      ~params:(Spec.to_params spec) ~dims:[| 4; 4 |] ~seed:11
      (fun obs ->
        Generator.run ~obs ~dims:[| 4; 4 |] ~strategy:strategy_4ary spec)
  in
  Alcotest.(check string) "regenerated trace matches the committed golden"
    (read_text golden_path) text;
  let tr = read_ok golden_path in
  Alcotest.(check int) "ops" 816 (List.length tr.Replay.ops);
  Alcotest.(check int) "vars" 32 (List.length tr.Replay.decls);
  (* As [divasim workload --replay FILE --strategy 4-ary] runs it: the
     CLI's default --seed 17, not the recorded seed 11. *)
  let replay () =
    (Replay.run ~seed:17 ~mode:Replay.Closed_loop ~strategy:strategy_4ary tr)
      .Generator.measurements
  in
  let m = replay () in
  check_meas "golden replay deterministic" m (replay ());
  Alcotest.(check int) "total msgs" 5792 m.Runner.total_msgs;
  Alcotest.(check int) "total bytes" 144224 m.Runner.total_bytes;
  Alcotest.(check int) "congestion msgs" 158 m.Runner.congestion_msgs;
  Alcotest.(check int) "congestion bytes" 4192 m.Runner.congestion_bytes;
  Alcotest.(check int) "startups" 3060 m.Runner.startups;
  Alcotest.(check int) "reads" 503 m.Runner.dsm_reads;
  Alcotest.(check int) "read hits" 103 m.Runner.dsm_read_hits;
  Alcotest.(check (float 0.0)) "time" 552618.5 m.Runner.time

let suite =
  [
    Alcotest.test_case "generator determinism (trace twice)" `Quick
      test_generator_determinism;
    Alcotest.test_case "golden trace regression" `Quick test_golden_trace;
    Alcotest.test_case "generator op counts" `Quick test_generator_op_count;
    Alcotest.test_case "matmul record/replay bit-for-bit (4-ary)" `Quick
      test_replay_matmul_4ary;
    Alcotest.test_case "matmul record/replay bit-for-bit (fixed home)" `Quick
      test_replay_matmul_fixed_home;
    Alcotest.test_case "synthetic record/replay bit-for-bit" `Quick
      test_replay_synthetic;
    Alcotest.test_case "open-loop honours recorded gaps" `Quick
      test_open_loop_slower;
    Alcotest.test_case "trace round-trip (text + file)" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "trace error reporting" `Quick test_trace_errors;
    Alcotest.test_case "offline analysis refuses a record" `Quick
      test_offline_refuses_record;
    Alcotest.test_case "sampler zipf skew" `Quick test_sampler_zipf_skew;
    Alcotest.test_case "sampler hot-cold" `Quick test_sampler_hot_cold;
    Alcotest.test_case "sampler locality" `Quick test_sampler_locality;
    Alcotest.test_case "sampler candidate sets" `Quick
      test_sampler_candidate_sets;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "latency report" `Quick test_latency_report;
  ]
