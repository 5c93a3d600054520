module Network = Diva_simnet.Network
module Dsm = Diva_core.Dsm
module Trace = Diva_obs.Trace
module Streaming = Diva_obs.Streaming
module Runner = Diva_harness.Runner

type decl = { d_var : int; d_name : string; d_size : int; d_owner : int }

type op = {
  o_proc : int;
  o_op : Trace.dsm_op;
  o_var : int;
  o_size : int;
  o_ts : float;
  o_dur : float;
}

type recording = {
  dims : int array;
  seed : int;
  decls : decl list;
  ops : op list;
}

(* Reading: the DSM events of any event stream, everything else ignored. *)
type acc = { mutable rev_decls : decl list; mutable rev_ops : op list }

let collect acc = function
  | Trace.Var_decl { var; var_name; size; owner; _ } ->
      acc.rev_decls <-
        { d_var = var; d_name = var_name; d_size = size; d_owner = owner }
        :: acc.rev_decls
  | Trace.Dsm_access { ts; dur; node; var; op; size; _ } ->
      acc.rev_ops <-
        { o_proc = node; o_op = op; o_var = var; o_size = size; o_ts = ts;
          o_dur = dur }
        :: acc.rev_ops
  | _ -> ()

let finish acc ~dims ~seed =
  {
    dims = Array.copy dims;
    seed;
    decls =
      List.sort (fun a b -> compare a.d_var b.d_var) (List.rev acc.rev_decls);
    ops = List.rev acc.rev_ops;
  }

let of_events ~dims ~seed events =
  let acc = { rev_decls = []; rev_ops = [] } in
  List.iter (collect acc) events;
  finish acc ~dims ~seed

let read path =
  let acc = { rev_decls = []; rev_ops = [] } in
  Result.map
    (fun h ->
      finish acc ~dims:h.Streaming.h_dims ~seed:h.Streaming.h_seed)
    (Streaming.iter_file path ~f:(collect acc))

type recorder = { oc : out_channel; mutable n_ops : int; mutable n_vars : int }

let recorder oc header =
  Streaming.write_header oc (Streaming.mark_dsm_only header);
  { oc; n_ops = 0; n_vars = 0 }

let record r e =
  match e with
  | Trace.Var_decl _ ->
      r.n_vars <- r.n_vars + 1;
      Trace.write_event r.oc e
  | Trace.Dsm_access _ ->
      r.n_ops <- r.n_ops + 1;
      Trace.write_event r.oc e
  | _ -> ()

let recorded_ops r = r.n_ops
let recorded_vars r = r.n_vars

type mode = Closed_loop | Open_loop

let mode_name = function Closed_loop -> "closed-loop" | Open_loop -> "open-loop"

(* Recorded inter-op gap: issue time minus the previous op's completion on
   the same processor (0 before the first op — closed loop from the start). *)
let with_gaps ops =
  let prev_end = Hashtbl.create 64 in
  List.map
    (fun (o : op) ->
      let last =
        Option.value ~default:o.o_ts (Hashtbl.find_opt prev_end o.o_proc)
      in
      Hashtbl.replace prev_end o.o_proc (o.o_ts +. o.o_dur);
      (o, Float.max 0.0 (o.o_ts -. last)))
    ops

let run ?(obs = Runner.null_obs) ?on_net ?seed ?(mode = Closed_loop) ~strategy
    (tr : recording) =
  let procs = Array.fold_left ( * ) 1 tr.dims in
  let seed = Option.value ~default:tr.seed seed in
  let net = Network.create_nd ~seed ~dims:tr.dims () in
  Runner.install_obs net obs;
  let dsm = Dsm.create net ~strategy () in
  (* Recreate every variable up front, in recorded id order, so the ids the
     DSM assigns coincide with the recorded ones. Creation is free in the
     simulated cost model, so early creation does not perturb replay even
     for traces of applications that allocated dynamically. *)
  let vars = Hashtbl.create (List.length tr.decls) in
  List.iter
    (fun (d : decl) ->
      if d.d_owner < 0 || d.d_owner >= procs then
        invalid_arg
          (Printf.sprintf "Replay.run: variable %d has owner %d outside the %d-processor mesh"
             d.d_var d.d_owner procs);
      Hashtbl.replace vars d.d_var
        (Dsm.create_var dsm ~name:d.d_name ~owner:d.d_owner
           ~size:d.d_size 0))
    tr.decls;
  let var o =
    match Hashtbl.find_opt vars o.o_var with
    | Some v -> v
    | None ->
        invalid_arg
          (Printf.sprintf "Replay.run: op references undeclared variable %d"
             o.o_var)
  in
  (* One reducer per recorded wire size, created in deterministic order. *)
  let reduce_sizes =
    List.sort_uniq compare
      (List.filter_map
         (fun (o : op) ->
           if o.o_op = Trace.Reduce then Some o.o_size else None)
         tr.ops)
  in
  let reducers = Hashtbl.create 4 in
  List.iter
    (fun size ->
      Hashtbl.replace reducers size
        (Dsm.reducer dsm ~combine:(fun a _ -> (a : int)) ~size))
    reduce_sizes;
  (* Partition into per-processor programs, preserving order. *)
  let programs = Array.make procs [] in
  List.iter
    (fun ((o : op), gap) ->
      if o.o_proc < 0 || o.o_proc >= procs then
        invalid_arg
          (Printf.sprintf "Replay.run: op on processor %d outside the %d-processor mesh"
             o.o_proc procs);
      programs.(o.o_proc) <- (o, gap) :: programs.(o.o_proc))
    (with_gaps tr.ops);
  Array.iteri (fun p ops -> programs.(p) <- List.rev ops) programs;
  let samples = Array.make (max 1 (List.length tr.ops)) 0.0 in
  let n_samples = ref 0 in
  let fiber p =
    List.iter
      (fun ((o : op), gap) ->
        (match mode with
        | Open_loop when gap > 0.0 -> Network.compute net p gap
        | _ -> ());
        let t0 = Network.now net in
        (match o.o_op with
        | Trace.Read -> ignore (Dsm.read dsm p (var o) : int)
        | Trace.Write -> Dsm.write dsm p (var o) 0
        | Trace.Lock -> Dsm.lock dsm p (var o)
        | Trace.Unlock -> Dsm.unlock dsm p (var o)
        | Trace.Barrier -> Dsm.barrier dsm p
        | Trace.Reduce ->
            ignore (Dsm.reduce dsm p (Hashtbl.find reducers o.o_size) 0 : int));
        (* Latency is reported over data operations only, matching the
           synthetic generator, so replay and generation are comparable. *)
        match o.o_op with
        | Trace.Read | Trace.Write ->
            samples.(!n_samples) <- Network.now net -. t0;
            incr n_samples
        | _ -> ())
      programs.(p)
  in
  for p = 0 to procs - 1 do
    Network.spawn net p (fun () -> fiber p)
  done;
  Runner.finish ?on_net ~obs net;
  let m = Runner.collect net (Some dsm) in
  {
    Generator.measurements = m;
    latency =
      Latency.of_samples ~duration_us:m.Runner.time
        (Array.sub samples 0 !n_samples);
  }
