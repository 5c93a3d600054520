(* One run of one benchmark workload, in a process of its own.

     perfbench.exe --workload W --seed N [--traced]

   prints a single JSON object on stdout: the run's host costs, the spans
   recorded around each layer call, a fingerprint of the simulated output
   and, with --traced, the per-layer counters. run.py repeats runs,
   checks fingerprints and reports medians (see README.md).

   A process runs exactly once because Gc.top_heap_words is process-wide
   and never shrinks: a second run in the same process would inherit the
   first one's heap peak. *)

module Json = Diva_obs.Json
module Trace = Diva_obs.Trace
module Prof = Diva_obs.Prof
module Streaming = Diva_obs.Streaming
module Analysis = Diva_obs.Analysis
module Mesh = Diva_mesh.Mesh
module Network = Diva_simnet.Network
module Sim = Diva_simnet.Sim
module Link_stats = Diva_simnet.Link_stats
module Machine = Diva_simnet.Machine
module Traffic = Diva_simnet.Traffic
module Par_engine = Diva_simnet.Par_engine
module Dsm = Diva_core.Dsm
module Matmul = Diva_apps.Matmul
module Barnes_hut = Diva_apps.Barnes_hut
module Stats = Diva_util.Stats

(* {1 Clocks and spans} *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type span = { name : string; parent : string; start : float; stop : float }

let origin = now_s ()
let spans : span list ref = ref []

let span ?(parent = "run") name f =
  let start = now_s () -. origin in
  let r = f () in
  spans := { name; parent; start; stop = now_s () -. origin } :: !spans;
  r

let span_s name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 !spans

(* Host cost of the simulate phase: wall and CPU time, and the GC counters
   over the same interval. Gc.quick_stat counts a domain's minor words only
   up to its last minor collection, so one is forced on each side of the
   interval, outside the timers; that makes the counts exact on every
   domain (a terminated domain's counts are flushed when it exits). *)
type cost = {
  wall : float;
  cpu : float;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let measure f =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu_s () and t0 = now_s () in
  let r = f () in
  let t1 = now_s () and c1 = cpu_s () in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  ( r,
    {
      wall = t1 -. t0;
      cpu = c1 -. c0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections - 1;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* {1 Traced-run counters} *)

(* A growable array; the traced run keeps every miss latency and every
   remote (src, dst) pair. *)
module Grow = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create x = { a = Array.make 4096 x; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) x in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

type counts = {
  mutable c_events : int;
  mutable c_msgs : int;
  mutable c_local : int;
  mutable c_xfers : int;
  mutable c_locks : int;
  mutable c_misses : int;
  mutable c_copy_adds : int;
  mutable c_invalidations : int;
  block_us : float Grow.t;  (** blocking latency of every missed op *)
  pairs : int Grow.t;  (** [src lsl 16 lor dst] of every remote send *)
}

let counts () =
  {
    c_events = 0; c_msgs = 0; c_local = 0; c_xfers = 0; c_locks = 0;
    c_misses = 0; c_copy_adds = 0; c_invalidations = 0;
    block_us = Grow.create 0.0; pairs = Grow.create 0;
  }

let count c (e : Trace.event) =
  c.c_events <- c.c_events + 1;
  match e with
  | Msg_send { local = true; _ } ->
      c.c_msgs <- c.c_msgs + 1;
      c.c_local <- c.c_local + 1
  | Msg_send { src; dst; _ } ->
      c.c_msgs <- c.c_msgs + 1;
      Grow.push c.pairs ((src lsl 16) lor dst)
  | Link_xfer _ -> c.c_xfers <- c.c_xfers + 1
  | Dsm_access { op; hit; dur; _ } -> (
      if op = Trace.Lock then c.c_locks <- c.c_locks + 1;
      match op with
      | (Read | Write | Lock) when not hit ->
          c.c_misses <- c.c_misses + 1;
          Grow.push c.block_us dur
      | _ -> ())
  | Copy_add _ -> c.c_copy_adds <- c.c_copy_adds + 1
  | Copy_drop { reason = Invalidated; _ } ->
      c.c_invalidations <- c.c_invalidations + 1
  | _ -> ()

(* Nanoseconds per [Mesh.route_into] call (the walk [Network.send] does)
   over the run's own remote (src, dst) pairs; median of three passes. *)
let route_ns mesh pairs =
  let n = Array.length pairs in
  if n = 0 then 0.0
  else begin
    let buf = Array.make (Mesh.max_route_length mesh) 0 in
    let pass () =
      let t0 = Monotonic_clock.now () in
      for i = 0 to n - 1 do
        let p = pairs.(i) in
        ignore
          (Sys.opaque_identity
             (Mesh.route_into mesh ~src:(p lsr 16) ~dst:(p land 0xffff) buf))
      done;
      Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float_of_int n
    in
    Stats.percentile 50.0 (Array.init 3 (fun _ -> pass ()))
  end

(* Shares of the profiler's samples taken inside the event loop (everything
   but [Host], which is set-up and teardown). *)
let prof_shares p =
  let subsystems = Json.member "subsystems" (Prof.to_json p) in
  let samples sub =
    let n = Option.bind subsystems (Json.member (Prof.subsystem_name sub)) in
    Option.value ~default:0 (Option.bind n Json.to_int)
  in
  let subs = Prof.[ Event_loop; Dispatch; Protocol; Strategy; Analysis ] in
  let total = List.fold_left (fun acc s -> acc + samples s) 0 subs in
  fun sub ->
    if total = 0 then 0.0 else float_of_int (samples sub) /. float_of_int total

(* {1 Workloads} *)

type run = {
  setup : float;  (** set-up seconds (see README.md) *)
  cost : cost;  (** simulate phase (plus finalize on analyze) *)
  events : int;
  fingerprint : (string * Json.t) list;
  layers : (string * float) list;  (** traced runs only *)
}

let hex f = Json.String (Printf.sprintf "%h" f)
let digest s = Json.String (Digest.to_hex (Digest.string s))

let dsm_fingerprint net dsm =
  let st = Network.stats net in
  Json.
    [
      ("events", Int (Sim.events_executed (Network.sim net)));
      ("total_msgs", Int (Link_stats.total_msgs st));
      ("total_bytes", Int (Link_stats.total_bytes st));
      ("congestion_msgs", Int (Link_stats.congestion_msgs st));
      ("congestion_bytes", Int (Link_stats.congestion_bytes st));
      ("startups", Int (Network.startups net));
      ("end_us", hex (Network.now net));
      ("reads", Int (Dsm.reads dsm));
      ("read_hits", Int (Dsm.read_hits dsm));
      ("writes", Int (Dsm.writes dsm));
    ]

(* What a traced DSM run observes: a stream listener counting trace
   events, an armed profiler and a pending-queue high-water hook. *)
type probe = { c : counts; prof : Prof.t; hwm : int ref }

let attach_probe net sink_of_listener =
  let c = counts () in
  let prof = Prof.create () in
  Network.set_trace net (sink_of_listener (count c));
  Network.attach_prof net prof;
  let sim = Network.sim net and hwm = ref 0 in
  Sim.add_advance_hook sim (fun _ _ ->
      let p = Sim.pending sim in
      if p > !hwm then hwm := p);
  { c; prof; hwm }

let dsm_layers pr net dsm =
  let c = pr.c in
  let share = prof_shares pr.prof in
  let st = Network.stats net in
  let blocks = Grow.to_array c.block_us in
  let f = float_of_int in
  [
    ("sim.events", f (Sim.events_executed (Network.sim net)));
    ("sim.pending_hwm", f !(pr.hwm));
    ("sim.loop_frac", share Prof.Event_loop);
    ("sim.dispatch_frac", share Prof.Dispatch);
    ("net.msgs", f c.c_msgs);
    ("net.local_msgs", f c.c_local);
    ("net.link_xfers", f c.c_xfers);
    ("net.startups", f (Network.startups net));
    ("net.congestion_msgs", f (Link_stats.congestion_msgs st));
    ("net.protocol_frac", share Prof.Protocol);
    ("mesh.route_ns", route_ns (Network.mesh net) (Grow.to_array c.pairs));
    ("core.reads", f (Dsm.reads dsm));
    ( "core.read_hit_ratio",
      Stats.ratio (f (Dsm.read_hits dsm)) (f (Dsm.reads dsm)) );
    ("core.writes", f (Dsm.writes dsm));
    ("core.locks", f c.c_locks);
    ("core.copy_adds", f c.c_copy_adds);
    ("core.invalidations", f c.c_invalidations);
    ("core.msgs_per_miss", Stats.ratio (f c.c_msgs) (f c.c_misses));
    ("core.strategy_frac", share Prof.Strategy);
    ("core.block_us_p50", Stats.percentile 50.0 blocks);
    ("core.block_us_p99", Stats.percentile 99.0 blocks);
    ("obs.trace_events", f c.c_events);
    ("obs.analysis_frac", share Prof.Analysis);
  ]

(* The three DSM workloads share one skeleton:
   Network.create -> Dsm.create -> app set-up -> spawn -> Network.run. *)
let run_dsm ~traced ~seed ~rows ~strategy ~obs ~app =
  let net, probe, finish =
    span "setup.network" (fun () ->
        let net = Network.create ~seed ~rows ~cols:rows () in
        let sink, finish = obs net in
        let probe =
          if traced then Some (attach_probe net (Trace.with_listener sink))
          else begin
            Network.set_trace net sink;
            None
          end
        in
        (net, probe, finish))
  in
  let dsm = span "setup.strategy" (fun () -> Dsm.create net ~strategy ()) in
  let check =
    span "setup.app" (fun () ->
        let fiber, check = app dsm in
        for p = 0 to Network.num_nodes net - 1 do
          Network.spawn net p (fun () -> fiber p)
        done;
        check)
  in
  let setup =
    span_s "setup.network" +. span_s "setup.strategy" +. span_s "setup.app"
  in
  let extra, cost =
    measure (fun () ->
        span "simulate" (fun () -> Network.run net);
        span "finalize" finish)
  in
  let fingerprint =
    span "check" (fun () -> dsm_fingerprint net dsm @ check () @ fst extra)
  in
  let layers =
    match probe with
    | None -> []
    | Some pr -> dsm_layers pr net dsm @ snd extra
  in
  {
    setup; cost; events = Sim.events_executed (Network.sim net); fingerprint;
    layers;
  }

let tree4 = Dsm.access_tree ~arity:4 ()
let no_obs _net = (Trace.null, fun () -> ([], []))
let no_check () = []

let matmul ~traced ~seed =
  run_dsm ~traced ~seed ~rows:32 ~strategy:tree4 ~obs:no_obs ~app:(fun dsm ->
      let app = Matmul.setup dsm { Matmul.block = 1024; compute = false } in
      (Matmul.fiber app, no_check))

let bodies_digest bodies =
  let b = Buffer.create (Array.length bodies * 160) in
  Array.iter
    (fun (m, (p : Diva_apps.Vec.t), (v : Diva_apps.Vec.t)) ->
      Printf.bprintf b "%h %h %h %h %h %h %h\n" m p.x p.y p.z v.x v.y v.z)
    bodies;
  digest (Buffer.contents b)

let nbody ~traced ~seed =
  let cfg = { (Barnes_hut.default_config ~nbodies:1000) with seed } in
  run_dsm ~traced ~seed ~rows:8 ~strategy:tree4 ~obs:no_obs ~app:(fun dsm ->
      let app = Barnes_hut.setup dsm cfg in
      let check () =
        let final = Barnes_hut.final_bodies app in
        let masses a = Array.map (fun (m, _, _) -> m) a in
        if masses final <> masses (Barnes_hut.generate cfg) then
          failwith "nbody: body masses changed during the run";
        Json.
          [
            ("cells_created", Int (Barnes_hut.cells_created app));
            ("bodies_digest", bodies_digest final);
          ]
      in
      (Barnes_hut.fiber app, check))

let gcel_overheads =
  let m = Machine.gcel in
  {
    Analysis.send_overhead = m.Machine.send_overhead;
    recv_overhead = m.Machine.recv_overhead;
    local_overhead = m.Machine.local_overhead;
  }

(* The streaming post-mortem: the run's trace sink is a Streaming fold,
   finalized into the Analysis summary after quiescence. The traced run
   times every feed call with the benchmark's own clock and books it to
   the profiler's Analysis subsystem. *)
let analyze ~traced ~seed =
  let obs net =
    let s = Streaming.create ~top_k:10 ~num_windows:8 gcel_overheads in
    let feed_ns = ref 0L in
    let sink =
      if not traced then Streaming.sink s
      else
        let prof = lazy (Option.get (Network.prof net)) in
        Trace.stream (fun e ->
            Prof.with_sub (Lazy.force prof) Prof.Analysis (fun () ->
                let t0 = Monotonic_clock.now () in
                Streaming.feed s e;
                feed_ns :=
                  Int64.add !feed_ns (Int64.sub (Monotonic_clock.now ()) t0)))
    in
    let finish () =
      let t0 = now_s () in
      let summary = Streaming.finalize s in
      let rendered = Analysis.render_summary summary in
      let finalize_s = now_s () -. t0 in
      let seen = Streaming.events_seen s in
      ( Json.
          [
            ("trace_events", Int seen);
            ("peak_msgs", Int (Streaming.peak_msgs s));
            ("summary_digest", digest rendered);
          ],
        [
          ("obs.peak_msgs", float_of_int (Streaming.peak_msgs s));
          ( "obs.feed_ns_per_event",
            Stats.ratio (Int64.to_float !feed_ns) (float_of_int seen) );
          ("obs.finalize_s", finalize_s);
        ] )
    in
    (sink, finish)
  in
  run_dsm ~traced ~seed ~rows:24 ~strategy:tree4 ~obs ~app:(fun dsm ->
      let app = Matmul.setup dsm { Matmul.block = 1024; compute = false } in
      (Matmul.fiber app, no_check))

(* Open-loop uniform traffic on the parallel engine with two domains. Its
   set-up happens inside Traffic.run; set-up is measured as the median of
   runs whose horizon ends before the first injection, which pay exactly
   that fixed cost (PRNG streams, shards, domain spawn and join). *)
let traffic ~traced ~seed =
  let go ?telemetry horizon =
    Traffic.run ~domains:2 ?telemetry ~seed ~rows:32 ~cols:32 ~rate:0.001
      ~horizon ~pattern:Traffic.Uniform ()
  in
  let telemetry =
    if traced then Some (Par_engine.telemetry_create ()) else None
  in
  let r, cost =
    measure (fun () -> span "simulate" (fun () -> go ?telemetry 200_000.0))
  in
  let fingerprint =
    span "check" (fun () ->
        if r.Traffic.r_delivered <> r.Traffic.r_injected then
          failwith "traffic: packets lost";
        [ ("render", Json.String (Traffic.render r)) ])
  in
  let setup =
    Stats.percentile 50.0
      (Array.init 25 (fun _ ->
           let t0 = now_s () in
           span "setup.probe" (fun () -> ignore (go 1e-9));
           now_s () -. t0))
  in
  let layers =
    match telemetry with
    | None -> []
    | Some tl ->
        let j = Par_engine.telemetry_json tl in
        let num k o =
          Option.value ~default:0.0
            (Option.bind (Json.member k o) Json.to_float)
        in
        let per_domain k =
          match Json.member "domains_detail" j with
          | Some (Json.List ds) ->
              List.fold_left (fun acc d -> acc +. num k d) 0.0 ds
          | _ -> 0.0
        in
        [
          ("sim.events", float_of_int r.Traffic.r_events);
          ("par.windows", num "windows" j);
          ("par.stall_frac", num "stall_frac" j);
          ("par.shard_imbalance", num "shard_imbalance" j);
          ("par.busy_s", per_domain "busy_s");
          ("par.barrier_s", per_domain "barrier_s");
        ]
  in
  { setup; cost; events = r.Traffic.r_events; fingerprint; layers }

(* {1 Main} *)

let () =
  let workload = ref "" and seed = ref 17 and traced = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W matmul|nbody|traffic|analyze");
      ("--seed", Arg.Set_int seed, "N workload seed (default 17)");
      ("--traced", Arg.Set traced, " also collect the per-layer counters");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W [--seed N] [--traced]";
  (* The minor heap divasim and bench run with. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1_048_576 };
  let run =
    match !workload with
    | "matmul" -> matmul
    | "nbody" -> nbody
    | "traffic" -> traffic
    | "analyze" -> analyze
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let traced = !traced in
  let r = span ~parent:"" "run" (fun () -> run ~traced ~seed:!seed) in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let c = r.cost in
  let open Json in
  let fl (k, v) = (k, Float v) in
  let out =
    Obj
      [
        ("workload", String !workload);
        ("seed", Int !seed);
        ("traced", Bool traced);
        ("setup_s", Float r.setup);
        ("wall_s", Float c.wall);
        ("cpu_s", Float c.cpu);
        ( "heap_peak_mb",
          Float (float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6) );
        ("alloc_mwords", Float (c.minor_words /. 1e6));
        ("events", Int r.events);
        ( "gc",
          Obj
            [
              ("minor_words", Float c.minor_words);
              ("promoted_words", Float c.promoted_words);
              ("minor_collections", Int c.minor_gcs);
              ("major_collections", Int c.major_gcs);
            ] );
        ( "spans",
          List
            (List.rev_map
               (fun s ->
                 Obj
                   [
                     ("name", String s.name);
                     ("parent", String s.parent);
                     ("start_s", Float s.start);
                     ("end_s", Float s.stop);
                   ])
               !spans) );
        ("fingerprint", Obj r.fingerprint);
        ("layers", Obj (List.map fl r.layers));
      ]
  in
  print_endline (to_string out)
