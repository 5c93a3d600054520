(* Tests for the discrete-event simulator and the network model. *)

module Sim = Diva_simnet.Sim
module Machine = Diva_simnet.Machine
module Network = Diva_simnet.Network
module Link_stats = Diva_simnet.Link_stats
module Mesh = Diva_mesh.Mesh
module Trace = Diva_obs.Trace
module Faults = Diva_faults.Faults
module Schedule = Diva_faults.Schedule

type Network.payload += Ping of int

let test_sim_event_order () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s 5.0 (fun () -> log := 5 :: !log);
  Sim.schedule s 1.0 (fun () -> log := 1 :: !log);
  Sim.schedule s 3.0 (fun () -> log := 3 :: !log);
  Sim.run s;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !log)

let test_sim_fifo_same_time () =
  let s = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.schedule s 1.0 (fun () -> log := i :: !log)
  done;
  Sim.run s;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_nested_schedule () =
  let s = Sim.create () in
  let log = ref [] in
  Sim.schedule s 1.0 (fun () ->
      log := `A :: !log;
      Sim.schedule s 2.0 (fun () -> log := `B :: !log));
  Sim.run s;
  Alcotest.(check int) "two events" 2 (List.length !log);
  Alcotest.(check bool) "order" true (List.rev !log = [ `A; `B ])

let test_sim_rejects_past () =
  let s = Sim.create () in
  Sim.schedule s 5.0 (fun () ->
      Alcotest.check_raises "past" (Invalid_argument
        "Sim.schedule: 1.000 is in the past (now = 5.000)")
        (fun () -> Sim.schedule s 1.0 (fun () -> ())));
  Sim.run s

let test_delivery_and_congestion () =
  let net = Network.create ~rows:1 ~cols:3 () in
  let got = ref [] in
  Network.set_handler net 2 (fun _ msg ->
      got := (msg.Network.m_src, msg.Network.m_size) :: !got);
  Network.send net ~src:0 ~dst:2 ~size:100 (Ping 1);
  Network.run net;
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 100) ] !got;
  (* The message crossed two links: congestion 1 message / 100 bytes. *)
  let st = Network.stats net in
  Alcotest.(check int) "congestion msgs" 1 (Link_stats.congestion_msgs st);
  Alcotest.(check int) "congestion bytes" 100 (Link_stats.congestion_bytes st);
  Alcotest.(check int) "total msgs = hops" 2 (Link_stats.total_msgs st);
  Alcotest.(check int) "total bytes" 200 (Link_stats.total_bytes st);
  Alcotest.(check int) "one startup" 1 (Network.startups net)

let test_local_send_free () =
  let net = Network.create ~rows:2 ~cols:2 () in
  let got = ref 0 in
  Network.set_handler net 1 (fun _ _ -> incr got);
  Network.send net ~src:1 ~dst:1 ~size:1000 (Ping 2);
  Network.run net;
  Alcotest.(check int) "delivered locally" 1 !got;
  Alcotest.(check int) "no congestion" 0 (Link_stats.congestion_msgs (Network.stats net));
  Alcotest.(check int) "no startup" 0 (Network.startups net)

let test_timing_uncontended () =
  (* latency = send_overhead + (h-1)*hop_latency + size/bw, plus the
     receiver overhead before the handler runs. *)
  let machine = Machine.gcel in
  let net = Network.create ~machine ~rows:1 ~cols:5 () in
  let at = ref 0.0 in
  Network.set_handler net 4 (fun n _ -> at := Network.now n);
  Network.send net ~src:0 ~dst:4 ~size:1000 (Ping 3);
  Network.run net;
  let expected =
    machine.Machine.send_overhead
    +. (3.0 *. machine.Machine.hop_latency)
    +. Machine.transfer_time machine 1000
    +. machine.Machine.recv_overhead
  in
  Alcotest.(check (float 1e-6)) "uncontended latency" expected !at

let test_link_contention_serializes () =
  (* Two messages over the same link must be served one after another. *)
  let machine = Machine.gcel in
  let net = Network.create ~machine ~rows:1 ~cols:2 () in
  let times = ref [] in
  Network.set_handler net 1 (fun n _ -> times := Network.now n :: !times);
  (* Two sends from node 0 at t=0: the second also waits for the sender's
     CPU (startup) and then for the link. *)
  Network.send net ~src:0 ~dst:1 ~size:10000 (Ping 1);
  Network.send net ~src:0 ~dst:1 ~size:10000 (Ping 2);
  Network.run net;
  match List.rev !times with
  | [ t1; t2 ] ->
      let transfer = Machine.transfer_time machine 10000 in
      Alcotest.(check bool) "second delayed by >= transfer" true
        (t2 -. t1 >= transfer -. 1e-6)
  | _ -> Alcotest.fail "expected two deliveries"

let test_fiber_compute_and_time () =
  let net = Network.create ~rows:1 ~cols:1 () in
  let finished = ref 0.0 in
  Network.spawn net 0 (fun () ->
      Network.compute net 0 100.0;
      Network.compute net 0 50.0;
      finished := Network.now net);
  Network.run net;
  Alcotest.(check (float 1e-9)) "computes add up" 150.0 !finished;
  Alcotest.(check (float 1e-9)) "accounted" 150.0 (Network.compute_time net 0)

let test_fiber_charge_flush () =
  let net = Network.create ~rows:1 ~cols:1 () in
  let finished = ref 0.0 in
  Network.spawn net 0 (fun () ->
      Network.charge net 0 30.0;
      Network.charge net 0 20.0;
      Network.flush_charge net 0;
      finished := Network.now net);
  Network.run net;
  Alcotest.(check (float 1e-9)) "charges folded in" 50.0 !finished;
  Alcotest.(check (float 1e-9)) "accounted" 50.0 (Network.compute_time net 0)

let test_fiber_recv_blocks () =
  let net = Network.create ~rows:1 ~cols:2 () in
  let got = ref (-1) in
  Network.spawn net 1 (fun () ->
      let msg = Network.recv net 1 () in
      (match msg.Network.m_payload with Ping i -> got := i | _ -> ());
      ());
  Network.spawn net 0 (fun () ->
      Network.compute net 0 500.0;
      Network.send net ~src:0 ~dst:1 ~size:8 (Ping 77));
  Network.run net;
  Alcotest.(check int) "received" 77 !got

let test_fiber_recv_filter () =
  let net = Network.create ~rows:1 ~cols:2 () in
  let order = ref [] in
  Network.spawn net 1 (fun () ->
      let m1 =
        Network.recv net 1
          ~where:(fun m -> match m.Network.m_payload with Ping i -> i = 2 | _ -> false)
          ()
      in
      (match m1.Network.m_payload with Ping i -> order := i :: !order | _ -> ());
      let m2 = Network.recv net 1 () in
      match m2.Network.m_payload with Ping i -> order := i :: !order | _ -> ());
  Network.spawn net 0 (fun () ->
      Network.send net ~src:0 ~dst:1 ~size:8 (Ping 1);
      Network.send net ~src:0 ~dst:1 ~size:8 (Ping 2));
  Network.run net;
  Alcotest.(check (list int)) "filtered then oldest" [ 2; 1 ] (List.rev !order)

let test_deadlock_detection () =
  let net = Network.create ~rows:1 ~cols:1 () in
  Network.spawn net 0 (fun () -> ignore (Network.recv net 0 ()));
  Alcotest.check_raises "deadlock"
    (Failure "Network.run: deadlock — 1 fiber(s) still blocked at t = 0.0 us")
    (fun () -> Network.run net)

let test_determinism () =
  (* Two identical runs produce identical statistics and end times. *)
  let run () =
    let net = Network.create ~seed:123 ~rows:4 ~cols:4 () in
    for p = 0 to 15 do
      Network.spawn net p (fun () ->
          for i = 1 to 5 do
            Network.send net ~src:p ~dst:((p + i) mod 16) ~size:(64 * i) (Ping i);
            Network.compute net p 10.0
          done)
    done;
    Network.run net;
    ( Network.now net,
      Link_stats.congestion_bytes (Network.stats net),
      Link_stats.total_bytes (Network.stats net),
      Network.startups net )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* A large mailbox burst must stay linear: the inbox is a queue with O(1)
   append (the old [list @ [msg]] representation was quadratic — 50k
   messages took minutes). FIFO order is asserted on every message; the
   generous wall-clock bound only guards against a quadratic regression. *)
let test_mailbox_burst_linear () =
  let n = 50_000 in
  let net = Network.create ~rows:1 ~cols:1 () in
  let t0 = Sys.time () in
  for i = 0 to n - 1 do
    Network.mailbox_deliver net
      { Network.m_src = 0; m_dst = 0; m_size = 8; m_tag = -1; m_payload = Ping i }
  done;
  let ok = ref 0 in
  Network.spawn net 0 (fun () ->
      for i = 0 to n - 1 do
        match (Network.recv net 0 ()).Network.m_payload with
        | Ping j when j = i -> incr ok
        | _ -> ()
      done);
  Network.run net;
  Alcotest.(check int) "all messages in FIFO order" n !ok;
  Alcotest.(check bool) "burst stays linear (< 5 s cpu)" true
    (Sys.time () -. t0 < 5.0)

(* Prebuilt events: [Sim.event f x] runs [f x] each time it is scheduled
   (no closure per scheduling), interleaved with ordinary closures in
   exact (time, insertion) order. *)
let test_sim_schedule_event () =
  let s = Sim.create () in
  let log = ref [] in
  let push x = log := x :: !log in
  let ten = Sim.event push 10 in
  Sim.schedule_event s 2.0 (Sim.event push 2);
  Sim.schedule s 1.0 (fun () -> push 1);
  Sim.schedule_event s 1.0 ten;
  Sim.schedule s 1.0 (fun () ->
      (* the same event again, from inside an event, at the current instant *)
      Sim.schedule_event s (Sim.now s) ten);
  Sim.run s;
  Alcotest.(check (list int)) "event/closure interleaving" [ 1; 10; 10; 2 ]
    (List.rev !log);
  Alcotest.(check int) "executed" 5 (Sim.events_executed s);
  Alcotest.check_raises "past event"
    (Invalid_argument "Sim.schedule: 0.500 is in the past (now = 2.000)")
    (fun () -> Sim.schedule_event s 0.5 ten)

(* Selective receive by tag: per-tag FIFO, O(1) amortized, coexisting with
   untagged traffic and the predicate filter on the same mailbox. *)
let test_recv_by_tag () =
  let net = Network.create ~rows:1 ~cols:2 () in
  let got = ref [] in
  Network.spawn net 1 (fun () ->
      (* Tag 7 first although tag 3's messages arrived earlier. *)
      let a = Network.recv net 1 ~tag:7 () in
      let b = Network.recv net 1 ~tag:3 () in
      let c = Network.recv net 1 ~tag:3 () in
      (* Untagged pops arrival order among the remaining messages. *)
      let d = Network.recv net 1 () in
      List.iter
        (fun m ->
          match m.Network.m_payload with
          | Ping i -> got := i :: !got
          | _ -> ())
        [ a; b; c; d ]);
  Network.spawn net 0 (fun () ->
      Network.send net ~src:0 ~dst:1 ~size:8 ~tag:3 (Ping 30);
      Network.send net ~src:0 ~dst:1 ~size:8 ~tag:3 (Ping 31);
      Network.send net ~src:0 ~dst:1 ~size:8 ~tag:7 (Ping 70);
      Network.send net ~src:0 ~dst:1 ~size:8 (Ping 99));
  Network.run net;
  Alcotest.(check (list int)) "tag routing" [ 70; 30; 31; 99 ]
    (List.rev !got)

let test_recv_tag_blocks_until_match () =
  let net = Network.create ~rows:1 ~cols:2 () in
  let order = ref [] in
  Network.spawn net 1 (fun () ->
      let m = Network.recv net 1 ~tag:5 () in
      (match m.Network.m_payload with
      | Ping i -> order := ("tagged", i) :: !order
      | _ -> ());
      let m2 = Network.recv net 1 () in
      match m2.Network.m_payload with
      | Ping i -> order := ("untagged", i) :: !order
      | _ -> ());
  Network.spawn net 0 (fun () ->
      (* The untagged message arrives first; the tag-5 waiter must skip it
         and wake only on the tagged one. *)
      Network.send net ~src:0 ~dst:1 ~size:8 (Ping 1);
      Network.send net ~src:0 ~dst:1 ~size:8 ~tag:5 (Ping 2));
  Network.run net;
  Alcotest.(check (list (pair string int)))
    "waiter wakes on its tag"
    [ ("tagged", 2); ("untagged", 1) ]
    (List.rev !order)

let test_recv_tag_where_exclusive () =
  let net = Network.create ~rows:1 ~cols:1 () in
  Network.spawn net 0 (fun () ->
      match
        Network.recv net 0 ~tag:1 ~where:(fun _ -> true) ()
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
  Network.run net

(* A tagged burst exercises the per-tag queues' lazy deletion: messages
   consumed by tag must also vanish from the arrival queue (and vice
   versa) without quadratic rescans. *)
let test_recv_tag_burst_linear () =
  let n = 30_000 in
  let net = Network.create ~rows:1 ~cols:1 () in
  let t0 = Sys.time () in
  for i = 0 to n - 1 do
    Network.mailbox_deliver net
      { Network.m_src = 0; m_dst = 0; m_size = 8; m_tag = i mod 4;
        m_payload = Ping i }
  done;
  let ok = ref 0 in
  Network.spawn net 0 (fun () ->
      (* Drain tag 2 completely, then everything else untagged. *)
      for k = 0 to (n / 4) - 1 do
        match (Network.recv net 0 ~tag:2 ()).Network.m_payload with
        | Ping j when j = (4 * k) + 2 -> incr ok
        | _ -> ()
      done;
      for _ = 1 to n - (n / 4) do
        match (Network.recv net 0 ()).Network.m_payload with
        | Ping j when j mod 4 <> 2 -> incr ok
        | _ -> ()
      done);
  Network.run net;
  Alcotest.(check int) "tagged + untagged drain" n !ok;
  Alcotest.(check bool) "burst stays linear (< 5 s cpu)" true
    (Sys.time () -. t0 < 5.0)

let test_snapshot_diff () =
  let net = Network.create ~rows:1 ~cols:2 () in
  Network.send net ~src:0 ~dst:1 ~size:50 (Ping 1);
  Network.run net;
  let snap = Link_stats.snapshot (Network.stats net) in
  Network.send net ~src:0 ~dst:1 ~size:70 (Ping 2);
  Network.run net;
  Alcotest.(check int) "since snapshot bytes" 70
    (Link_stats.congestion_bytes ~since:snap (Network.stats net));
  Alcotest.(check int) "since snapshot msgs" 1
    (Link_stats.congestion_msgs ~since:snap (Network.stats net));
  Alcotest.(check int) "full history" 120
    (Link_stats.congestion_bytes (Network.stats net))

(* --- delivery slots ------------------------------------------------ *)

(* A message in flight lives in a recycled delivery slot, and the [msg] a
   handler sees is built when the slot is dispatched. These checks send
   [Probe k] and compare what arrives with what was sent, while slots are
   reused heavily. *)
type Network.payload += Probe of int

type sent = {
  s_src : int;
  s_dst : int;
  s_size : int;
  s_tag : int;
  s_id : int;  (* causal id and txn of the send, read off its [Msg_send] *)
  s_txn : int;
  s_parent : int;
  s_depth : int;
}

type probes = {
  net : Network.t;
  sent : (int, sent) Hashtbl.t;
  handled : (int, int) Hashtbl.t;  (* k -> times a handler saw it *)
  mutable bad : string list;  (* mismatches, newest first *)
  mutable next : int;
  mutable last : int * int * int;  (* (id, txn, parent) of the last Msg_send *)
}

let probe_schedule =
  Schedule.make ~seed:11 ~rto_us:20000.0
    [ Schedule.Msg_drop { prob = 0.3; w = { t0 = 0.0; t1 = 1e12 } } ]

let probes ?faults () =
  let net = Network.create ~rows:4 ~cols:4 () in
  Option.iter (fun sch -> Network.set_faults net (Faults.create sch)) faults;
  let pr =
    { net; sent = Hashtbl.create 4096; handled = Hashtbl.create 4096; bad = [];
      next = 0; last = (-1, -1, -1) }
  in
  Network.set_trace net
    (Trace.stream (function
      | Trace.Msg_send { id; txn; parent; _ } -> pr.last <- (id, txn, parent)
      | _ -> ()));
  pr

let probe_send pr ~src ~dst depth =
  let k = pr.next in
  pr.next <- k + 1;
  let size = 8 + (k mod 97) and tag = (k mod 5) - 1 in
  Network.send pr.net ~tag ~src ~dst ~size (Probe k);
  let s_id, s_txn, s_parent = pr.last in
  Hashtbl.replace pr.sent k
    { s_src = src; s_dst = dst; s_size = size; s_tag = tag; s_id; s_txn;
      s_parent; s_depth = depth }

let probe_bad pr fmt = Printf.ksprintf (fun m -> pr.bad <- m :: pr.bad) fmt

(* Compare an arrived message with its send. [in_handler] also checks the
   causal context the dispatch set up. *)
let probe_check pr ~in_handler (msg : Network.msg) =
  match msg.Network.m_payload with
  | Probe k -> (
      match Hashtbl.find_opt pr.sent k with
      | None -> probe_bad pr "probe %d was never sent" k
      | Some s ->
          if
            (msg.Network.m_src, msg.m_dst, msg.m_size, msg.m_tag)
            <> (s.s_src, s.s_dst, s.s_size, s.s_tag)
          then
            probe_bad pr "probe %d: got %d->%d size %d tag %d" k msg.m_src
              msg.m_dst msg.m_size msg.m_tag;
          if
            in_handler
            && (Network.cur_msg pr.net, Network.cur_txn pr.net) <> (s.s_id, s.s_txn)
          then
            probe_bad pr "probe %d: context (%d, %d), traced (%d, %d)" k
              (Network.cur_msg pr.net) (Network.cur_txn pr.net) s.s_id s.s_txn;
          Hashtbl.replace pr.handled k
            (1 + Option.value ~default:0 (Hashtbl.find_opt pr.handled k)))
  | _ -> probe_bad pr "foreign payload"

(* Every handler checks its message, then (up to depth 2) sends one local
   and one remote child; the children inherit the message's txn and name
   it as their parent. *)
let install_probe_handlers ?(except = -1) pr =
  for node = 0 to Network.num_nodes pr.net - 1 do
    if node <> except then
      Network.set_handler pr.net node (fun net msg ->
          probe_check pr ~in_handler:true msg;
          match msg.Network.m_payload with
          | Probe k ->
              let s = Hashtbl.find pr.sent k in
              if s.s_depth < 2 then begin
                let first = pr.next in
                probe_send pr ~src:node ~dst:node (s.s_depth + 1);
                probe_send pr ~src:node
                  ~dst:((node + 1 + (k mod 15)) mod Network.num_nodes net)
                  (s.s_depth + 1);
                for c = first to pr.next - 1 do
                  let cs = Hashtbl.find pr.sent c in
                  if (cs.s_txn, cs.s_parent) <> (s.s_txn, s.s_id) then
                    probe_bad pr "probe %d: traced txn/parent (%d, %d), want (%d, %d)"
                      c cs.s_txn cs.s_parent s.s_txn s.s_id
                done
              end
          | _ -> ())
  done

(* [n] top-level sends, each its own transaction. *)
let probe_seeds pr n =
  for i = 0 to n - 1 do
    Network.set_txn pr.net (1_000_000 + i);
    probe_send pr ~src:(i mod 16) ~dst:((i * 7 + 3) mod 16) 0
  done;
  Network.set_txn pr.net (-1)

let check_probes pr =
  Alcotest.(check (list string)) "every message as sent" [] (List.rev pr.bad);
  let twice = Hashtbl.fold (fun _ c acc -> if c <> 1 then acc + 1 else acc) pr.handled 0 in
  Alcotest.(check int) "every probe handled" (Hashtbl.length pr.sent)
    (Hashtbl.length pr.handled);
  Alcotest.(check int) "handled exactly once" 0 twice

let test_slots_in_flight () =
  let pr = probes () in
  install_probe_handlers pr;
  probe_seeds pr 12_000;
  Alcotest.(check bool) "over 10 K deliveries pending" true
    (Sim.pending (Network.sim pr.net) >= 10_000);
  Network.run pr.net;
  Alcotest.(check int) "seeds and two generations of children" (12_000 * 7)
    (Hashtbl.length pr.sent);
  check_probes pr

(* Messages left in node 0's mailbox stay intact while thousands of later
   sends recycle the slots they arrived in. *)
let slots_mailbox_kept ?faults () =
  let pr = probes ?faults () in
  install_probe_handlers ~except:0 pr;
  for i = 0 to 299 do
    probe_send pr ~src:(i mod 16) ~dst:0 2
  done;
  Network.run pr.net;
  let kept = Hashtbl.length pr.sent in
  for i = 0 to 2999 do
    probe_send pr ~src:(1 + (i mod 15)) ~dst:(1 + ((i * 7) mod 15)) 2
  done;
  Network.run pr.net;
  Network.spawn pr.net 0 (fun () ->
      for _ = 1 to kept do
        probe_check pr ~in_handler:false (Network.recv pr.net 0 ())
      done);
  Network.run pr.net;
  check_probes pr;
  pr

let test_slots_mailbox_kept () = ignore (slots_mailbox_kept ())

(* The same under drops: envelopes, acks and retransmissions all cycle
   through slots, and the watchdog's [nudge] retransmits from outside any
   handler; each probe must still be handled exactly once, as sent. *)
let test_slots_under_faults () =
  let pr = probes ~faults:probe_schedule () in
  install_probe_handlers pr;
  probe_seeds pr 2_000;
  let sim = Network.sim pr.net and nudged = ref 0 in
  let f = Option.get (Network.faults pr.net) in
  for i = 1 to 40 do
    Sim.schedule sim (float_of_int i *. 25_000.0) (fun () ->
        let before = Faults.retransmits f in
        for src = 0 to 15 do
          Network.nudge pr.net ~src
        done;
        nudged := !nudged + Faults.retransmits f - before)
  done;
  Network.run pr.net;
  check_probes pr;
  Alcotest.(check bool) "transmissions lost" true (Faults.lost_total f > 0);
  Alcotest.(check bool) "acks received" true (Faults.acks_received f > 0);
  Alcotest.(check bool) "nudges retransmitted" true (!nudged > 0);
  Alcotest.(check bool) "timers retransmitted" true (Faults.retransmits f > !nudged);
  let pr = slots_mailbox_kept ~faults:probe_schedule () in
  Alcotest.(check bool) "mailbox run lost transmissions" true
    (Faults.lost_total (Option.get (Network.faults pr.net)) > 0)

(* After warm-up, a fault-free remote send allocates nothing of its own
   until its delivery is dispatched: the slot pool, the event queue and
   the route buffer are all reused. The one allocation left is the box of
   the delivery time handed to [Sim.schedule_event] (2 words): modules are
   compiled opaquely, so a float crossing into another module is boxed.
   The send-time records this replaced (message, delivery context, queue
   entry) cost 14 words more. *)
let test_send_allocates_no_records () =
  let net = Network.create ~rows:4 ~cols:4 () in
  for node = 0 to 15 do
    Network.set_handler net node (fun _ _ -> ())
  done;
  let payload = Ping 0 in
  let burst () =
    for i = 0 to 999 do
      let src = i mod 16 in
      Network.send net ~src ~dst:((src + 1 + (i mod 15)) mod 16) ~size:64 payload
    done
  in
  burst ();
  Network.run net;
  burst ();
  Network.run net;
  let before = Gc.minor_words () in
  burst ();
  let per_send = (Gc.minor_words () -. before) /. 1000.0 in
  Network.run net;
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per send, at most the time's box" per_send)
    true (per_send <= 2.0)

let suite =
  [
    Alcotest.test_case "event order" `Quick test_sim_event_order;
    Alcotest.test_case "fifo same time" `Quick test_sim_fifo_same_time;
    Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
    Alcotest.test_case "rejects past" `Quick test_sim_rejects_past;
    Alcotest.test_case "delivery and congestion" `Quick test_delivery_and_congestion;
    Alcotest.test_case "local send free" `Quick test_local_send_free;
    Alcotest.test_case "uncontended timing" `Quick test_timing_uncontended;
    Alcotest.test_case "link contention" `Quick test_link_contention_serializes;
    Alcotest.test_case "fiber compute" `Quick test_fiber_compute_and_time;
    Alcotest.test_case "fiber charge/flush" `Quick test_fiber_charge_flush;
    Alcotest.test_case "fiber recv blocks" `Quick test_fiber_recv_blocks;
    Alcotest.test_case "fiber recv filter" `Quick test_fiber_recv_filter;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "mailbox burst linear" `Quick test_mailbox_burst_linear;
    Alcotest.test_case "schedule_event" `Quick test_sim_schedule_event;
    Alcotest.test_case "slots: 10 K in flight" `Quick test_slots_in_flight;
    Alcotest.test_case "slots: kept mailbox messages" `Quick
      test_slots_mailbox_kept;
    Alcotest.test_case "slots: under faults" `Quick test_slots_under_faults;
    Alcotest.test_case "send allocates no records" `Quick
      test_send_allocates_no_records;
    Alcotest.test_case "recv by tag" `Quick test_recv_by_tag;
    Alcotest.test_case "recv tag waiter" `Quick test_recv_tag_blocks_until_match;
    Alcotest.test_case "recv tag+where rejected" `Quick
      test_recv_tag_where_exclusive;
    Alcotest.test_case "recv tag burst linear" `Quick test_recv_tag_burst_linear;
    Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
  ]
