module Heap = Diva_util.Event_queue
module Prof = Diva_obs.Prof

(* An event is either a plain thunk or a packed (function, argument) pair.
   The packed form lets hot schedule sites (message delivery in [Network])
   pass one statically-allocated function plus a small argument record
   instead of building a fresh closure chain per event: the closure's
   environment becomes an explicit record the caller can size exactly. *)
type event = Fn of (unit -> unit) | Call : ('a -> unit) * 'a -> event

type t = {
  queue : event Heap.t;
  mutable clock : float;
  mutable executed : int;
  mutable advance_hook : (float -> float -> unit) option;
  cell : Prof.cell;
}

let create () =
  {
    queue = Heap.create ();
    clock = 0.0;
    executed = 0;
    advance_hook = None;
    cell = Prof.cell ();
  }

(* Hooks only observe, so composition order is irrelevant; new hooks are
   prepended. Lets the metrics sampler, the profiler's window series and
   the flight recorder's health snapshots coexist on the one slot. *)
let add_advance_hook t f =
  match t.advance_hook with
  | None -> t.advance_hook <- Some f
  | Some g ->
      t.advance_hook <-
        Some
          (fun a b ->
            f a b;
            g a b)

let cell t = t.cell
let now t = t.clock

let check_future t at =
  if at < t.clock -. 1e-9 then
    invalid_arg
      (Printf.sprintf "Sim.schedule: %.3f is in the past (now = %.3f)" at
         t.clock)

let schedule t at f =
  check_future t at;
  Heap.insert t.queue (Float.max at t.clock) (Fn f)

let schedule_now t f = Heap.insert t.queue t.clock (Fn f)

let schedule_call t at f x =
  check_future t at;
  Heap.insert t.queue (Float.max at t.clock) (Call (f, x))

let schedule_call_now t f x = Heap.insert t.queue t.clock (Call (f, x))

(* Every transition publishes its layer in the attribution cell, one word
   store each: queue work (pop, hook, clock) books to [Event_loop], the
   event body to [Dispatch] until a deeper layer (network dispatch,
   protocol handler, strategy callback) refines it. *)
let run t =
  let cell = t.cell in
  cell.sub <- Prof.Event_loop;
  while not (Heap.is_empty t.queue) do
    let at = Heap.min_priority_exn t.queue in
    let ev = Heap.pop_exn t.queue in
    (match t.advance_hook with
    | Some h when at > t.clock -> h t.clock at
    | _ -> ());
    t.clock <- at;
    t.executed <- t.executed + 1;
    cell.sub <- Prof.Dispatch;
    (match ev with Fn f -> f () | Call (f, x) -> f x);
    (* Deeper layers may have refined the attribution; the loop-trailing
       store doubles as the loop-top one for the next iteration. *)
    cell.sub <- Prof.Event_loop
  done;
  cell.sub <- Prof.Host

let events_executed t = t.executed
let pending t = Heap.size t.queue
