(* Golden byte tests for the strategy-zoo contenders.

   Each new registry strategy has a committed golden event trace of the
   fixed matmul run (2x2 mesh, block 64, seed 17), and two access-tree
   runs of a hot-spot synthetic load pin the multicast and remapping
   paths; the tests re-run the simulation and require the re-encoded
   trace to match byte for byte.
   Together with the pre-existing 4-ary and chrome goldens this pins the
   protocols' entire observable behaviour — any unintended change to
   message order, sizes, timing or trace encoding fails here.

   Regenerate with `dune exec test/gen_golden.exe` after an intentional
   change. *)

module Runner = Diva_harness.Runner
module Registry = Diva_core.Registry
module Trace = Diva_obs.Trace
module Streaming = Diva_obs.Streaming
module Machine = Diva_simnet.Machine
module Json = Diva_obs.Json

module Spec = Diva_workload.Spec

let gcel_overheads =
  let m = Machine.gcel in
  { Diva_obs.Analysis.send_overhead = m.Machine.send_overhead;
    recv_overhead = m.Machine.recv_overhead;
    local_overhead = m.Machine.local_overhead }

(* Run [run] with a recording trace and encode it as a JSONL event trace
   under the given header fields. *)
let encode ~app ~params ~dims ~strategy ~seed run =
  let tr = Trace.create () in
  run { Runner.null_obs with Runner.obs_trace = tr };
  let header =
    Streaming.make_header ~params ~app ~dims ~strategy ~seed
      ~overheads:gcel_overheads ()
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b (Json.to_string (Streaming.header_json header));
  Buffer.add_char b '\n';
  List.iter
    (fun e ->
      Buffer.add_string b (Json.to_string (Trace.event_to_json e));
      Buffer.add_char b '\n')
    (Trace.events tr);
  Buffer.contents b

let matmul_bytes name =
  let spec =
    match Registry.find name with
    | Some s -> s
    | None -> Alcotest.failf "unknown registry strategy %s" name
  in
  encode ~app:"matmul" ~params:[ ("block", Json.Int 64) ] ~dims:[| 2; 2 |]
    ~strategy:name ~seed:17 (fun obs ->
      ignore
        (Runner.run_matmul ~seed:17 ~rows:2 ~cols:2 ~block:64 ~obs
           (Runner.Strategy spec)))

(* Hot-spot synthetic load on a 4x4 mesh: two shared keys that every
   processor reads. Combined read replies fan out in several directions
   (the multicast grouping path), and under a 2-ary tree with remap
   threshold 8 tree nodes move (state transfers, placement overrides). *)
let hot_spec =
  Spec.make ~num_vars:2 ~var_size:32
    ~phases:[ Spec.phase ~read_ratio:0.9 8 ]
    ~seed:5 ()

let hot_bytes strategy =
  encode ~app:"workload" ~params:(Spec.to_params hot_spec) ~dims:[| 4; 4 |]
    ~strategy:(Diva_core.Dsm.strategy_name strategy)
    ~seed:hot_spec.Spec.seed (fun obs ->
      ignore
        (Diva_workload.Generator.run ~obs ~dims:[| 4; 4 |] ~strategy hot_spec))

let check_golden path got () =
  let got = got () in
  let ic = open_in_bin path in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if got <> want then
    Alcotest.failf
      "event trace drifted from %s (%d vs %d bytes); regenerate with \
       dune exec test/gen_golden.exe if intentional"
      path (String.length got) (String.length want)

let suite =
  List.map
    (fun name ->
      Alcotest.test_case (name ^ " matmul golden bytes") `Quick
        (check_golden
           (Printf.sprintf "data/golden_events_2x2_%s.jsonl" name)
           (fun () -> matmul_bytes name)))
    [ "prefetch_tree"; "adaptive_repl"; "capacity_lru"; "capacity_freq" ]
  @ [
      Alcotest.test_case "contended reads 4x4 golden bytes" `Quick
        (check_golden "data/golden_events_4x4_contended.jsonl" (fun () ->
             hot_bytes (Diva_core.Dsm.access_tree ~arity:4 ())));
      Alcotest.test_case "remapping 4x4 golden bytes" `Quick
        (check_golden "data/golden_events_4x4_remap.jsonl" (fun () ->
             hot_bytes
               (Diva_core.Dsm.access_tree ~arity:2 ~remap_threshold:8 ())));
    ]
