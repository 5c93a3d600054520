(* Regenerate the golden observability files under test/data/ after an
   intentional format change:

     dune exec test/gen_golden.exe

   writes into the source tree (run from the repository root). *)

module Runner = Diva_harness.Runner
module Trace = Diva_obs.Trace
module Streaming = Diva_obs.Streaming

let () =
  let tr = Trace.create () in
  ignore
    (Runner.run_matmul ~seed:17 ~rows:2 ~cols:2 ~block:64
       ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
       (Runner.Strategy (Diva_core.Dsm.access_tree ~arity:4 ())));
  let path = "test/data/golden_chrome_2x2.json" in
  Diva_obs.Chrome_trace.write_file ~path ~num_nodes:4 (Trace.events tr);
  Printf.printf "wrote %s (%d events)\n" path (Trace.count tr);
  (* Same fixed run, encoded as the versioned JSONL event-trace format
     (header + one event per line); the golden test replays the encoding
     byte for byte. The header must match test_streaming.golden_header. *)
  let write_golden path header tr =
    let oc = open_out_bin path in
    let sink = Streaming.file_sink oc header in
    List.iter (Trace.emit sink) (Trace.events tr);
    close_out oc;
    Printf.printf "wrote %s (%d events)\n" path (Trace.count tr)
  in
  let m = Diva_simnet.Machine.gcel in
  let overheads =
    { Diva_obs.Analysis.send_overhead = m.Diva_simnet.Machine.send_overhead;
      recv_overhead = m.Diva_simnet.Machine.recv_overhead;
      local_overhead = m.Diva_simnet.Machine.local_overhead }
  in
  let header =
    Streaming.make_header
      ~params:[ ("block", Diva_obs.Json.Int 64) ]
      ~app:"matmul" ~dims:[| 2; 2 |] ~strategy:"4-ary" ~seed:17
      ~overheads
      ()
  in
  write_golden "test/data/golden_events_2x2.jsonl" header tr;
  (* One golden event trace per strategy-zoo contender, same fixed matmul
     run; the byte tests in test_golden_strategies.ml replay these. The
     header names the registry entry, not the display name. *)
  List.iter
    (fun name ->
      let spec =
        match Diva_core.Registry.find name with
        | Some s -> s
        | None -> failwith ("unknown registry strategy: " ^ name)
      in
      let tr = Trace.create () in
      ignore
        (Runner.run_matmul ~seed:17 ~rows:2 ~cols:2 ~block:64
           ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
           (Runner.Strategy spec));
      let header =
        Streaming.make_header
          ~params:[ ("block", Diva_obs.Json.Int 64) ]
          ~app:"matmul" ~dims:[| 2; 2 |] ~strategy:name ~seed:17
          ~overheads
          ()
      in
      write_golden
        (Printf.sprintf "test/data/golden_events_2x2_%s.jsonl" name)
        header tr)
    [ "prefetch_tree"; "adaptive_repl"; "capacity_lru"; "capacity_freq" ];
  (* Two access-tree paths the matmul goldens barely reach, on a hot-spot
     synthetic load (two shared keys, every processor reading them): read
     replies fanning out in several directions at once, and remapping
     (state moves and placement overrides). Must match the scenarios in
     test_golden_strategies.ml. *)
  let spec =
    Diva_workload.Spec.make ~num_vars:2 ~var_size:32
      ~phases:[ Diva_workload.Spec.phase ~read_ratio:0.9 8 ]
      ~seed:5 ()
  in
  List.iter
    (fun (label, strategy) ->
      let tr = Trace.create () in
      ignore
        (Diva_workload.Generator.run
           ~obs:{ Runner.null_obs with Runner.obs_trace = tr }
           ~dims:[| 4; 4 |] ~strategy spec);
      let header =
        Streaming.make_header
          ~params:(Diva_workload.Spec.to_params spec)
          ~app:"workload" ~dims:[| 4; 4 |]
          ~strategy:(Diva_core.Dsm.strategy_name strategy)
          ~seed:spec.Diva_workload.Spec.seed
          ~overheads
          ()
      in
      write_golden
        (Printf.sprintf "test/data/golden_events_4x4_%s.jsonl" label)
        header tr)
    [
      ("contended", Diva_core.Dsm.access_tree ~arity:4 ());
      ("remap", Diva_core.Dsm.access_tree ~arity:2 ~remap_threshold:8 ());
    ]
