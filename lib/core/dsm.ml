module Embedding = Diva_mesh.Embedding
module Network = Diva_simnet.Network
module Machine = Diva_simnet.Machine
module Sim = Diva_simnet.Sim
module Prng = Diva_util.Prng
module Trace = Diva_obs.Trace
module Prof = Diva_obs.Prof
module Faults = Diva_faults.Faults

type strategy = Strategy.spec =
  | Access_tree of Strategy.tree_config
  | Fixed_home
  | Adaptive of Strategy.adaptive_config

let access_tree ?(leaf_size = 1) ?(embedding = Embedding.Regular) ?capacity
    ?(combining = true) ?remap_threshold ?(eviction = Strategy.Lru)
    ?(prefetch = false) ~arity () =
  Access_tree
    { Strategy.arity; leaf_size; embedding; capacity; combining;
      remap_threshold; eviction; prefetch }

let adaptive ?(replicate_after = Strategy.adaptive_defaults.Strategy.replicate_after)
    ?(migrate_after = Strategy.adaptive_defaults.Strategy.migrate_after) () =
  Adaptive { Strategy.replicate_after; migrate_after }

let strategy_name = Strategy.spec_name

type t = {
  network : Network.t;
  spec : Strategy.spec;
  inst : Strategy.instance;
  tree : Access_tree.t option;  (* tree-specific observability hooks *)
  sync : Sync.t;
  read_hit_cost : float;
  write_hit_cost : float;
  mutable next_var_id : int;
  var_seed : int64;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_read_hits : int;
  mutable n_write_hits : int;
}

type 'a var = {
  v : Types.var;
  inj : 'a -> Value.t;
  proj : Value.t -> 'a;
}

let create network ~strategy ?(read_hit_ops = 10) ?(write_hit_ops = 10) () =
  (* RNG draw order is part of the bit-identity contract with the golden
     traces: (1) split off the DSM stream, (2) instantiate the strategy
     (the access tree splits the network stream for its remap RNG),
     (3) split the sync stream, (4) draw the variable seed. *)
  let rng = Prng.split (Network.rng network) in
  let resolved = Registry.instantiate network strategy in
  let sync =
    Sync.create network resolved.Registry.sync_deco ~rng:(Prng.split rng) ()
  in
  let machine = Network.machine network in
  let t =
    {
      network;
      spec = strategy;
      inst = resolved.Registry.inst;
      tree = resolved.Registry.tree;
      sync;
      read_hit_cost = float_of_int read_hit_ops *. machine.Machine.int_op_time;
      write_hit_cost = float_of_int write_hit_ops *. machine.Machine.int_op_time;
      next_var_id = 0;
      var_seed = Prng.bits64 rng;
      n_reads = 0;
      n_writes = 0;
      n_read_hits = 0;
      n_write_hits = 0;
    }
  in
  let dispatch =
    (* Unpack the existential once; the closure is installed on every
       node, so this match must not sit on the per-message path. The
       strategy handler books to [Strategy] in the network's attribution
       cell, which any profiler attached before or after this point
       samples. *)
    let (Strategy.Instance ((module S), s)) = t.inst in
    let cell = Sim.cell (Network.sim network) in
    fun net msg ->
      cell.sub <- Prof.Strategy;
      let handled = S.handle s msg in
      cell.sub <- Prof.Protocol;
      if not (handled || Sync.handle t.sync msg) then
        Network.mailbox_deliver net msg
  in
  for node = 0 to Network.num_nodes network - 1 do
    Network.set_handler network node dispatch
  done;
  t

let net t = t.network
let num_procs t = Network.num_nodes t.network

let create_var t ?name ~owner ~size init =
  if owner < 0 || owner >= num_procs t then invalid_arg "Dsm.create_var: bad owner";
  if size < 0 then invalid_arg "Dsm.create_var: negative size";
  let id = t.next_var_id in
  t.next_var_id <- id + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "v%d" id in
  let inj, proj = Value.embed () in
  let v =
    {
      Types.id;
      name;
      data_size = size;
      owner;
      seed = Prng.hash2 t.var_seed id;
      value = inj init;
    }
  in
  let tr = Network.trace t.network in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.Var_decl
         { ts = Network.now t.network; var = id; var_name = name; size; owner });
  { v; inj; proj }

(* Blocking protocol operation with graceful degradation under faults: a
   watchdog fires after [patience] microseconds (doubling on every
   further firing, capped at 2^6) while the fiber stays blocked, and
   forces early retransmission of the issuing processor's stale pending
   envelopes. Re-driving the transport instead of re-issuing the
   transaction keeps exactly-once semantics — a re-issued write could
   commit twice; losses at other protocol nodes along the transaction are
   covered by their own retry timers. Without faults this is exactly
   [Network.suspend]. *)
let blocking_op t p register =
  match Network.faults t.network with
  | None -> Network.suspend register
  | Some f ->
      let net = t.network in
      let settled = ref false in
      let rec arm k =
        Sim.schedule (Network.sim net)
          (Network.now net
          +. (Faults.patience f *. Float.of_int (1 lsl min k 6)))
          (fun () ->
            if not !settled then begin
              Faults.count_dsm_reissue f;
              Network.nudge net ~src:p;
              arm (k + 1)
            end)
      in
      arm 0;
      Network.suspend (fun resume ->
          register (fun v ->
              settled := true;
              resume v))

(* One shared-memory operation span: [ts] is the issue time, [dur] the
   fiber's blocking latency (0 for hits). Emission happens after the
   operation completes, so the event never interleaves with the protocol. *)
let trace_op ?(size = -1) ?(txn = -1) ?(completed_by = -1) t p
    (v : Types.var option) op ~t0 ~hit =
  let tr = Network.trace t.network in
  if Trace.enabled tr then
    let var, var_name, size =
      match v with
      | Some v -> (v.Types.id, v.Types.name, v.Types.data_size)
      | None -> (-1, "", max 0 size)
    in
    Trace.emit tr
      (Trace.Dsm_access
         { ts = t0; dur = Network.now t.network -. t0; node = p; var;
           var_name; op; size; hit; txn; completed_by })

(* Open a causal transaction for a blocking operation: protocol messages
   sent while it is the current context inherit its id. The counter
   advances in untraced runs too (it feeds nothing in the simulation), so
   tracing cannot perturb a run. *)
let open_txn t =
  let txn = Network.fresh_txn t.network in
  Network.set_txn t.network txn;
  txn

let read t p var =
  t.n_reads <- t.n_reads + 1;
  let hit = Strategy.cached t.inst p var.v in
  if hit then begin
    t.n_read_hits <- t.n_read_hits + 1;
    Network.charge t.network p t.read_hit_cost;
    trace_op t p (Some var.v) Trace.Read ~t0:(Network.now t.network) ~hit:true;
    var.proj var.v.Types.value
  end
  else begin
    Network.flush_charge t.network p;
    let t0 = Network.now t.network in
    let txn = open_txn t in
    let packed =
      blocking_op t p (fun resume -> Strategy.read t.inst p var.v ~k:resume)
    in
    trace_op t p (Some var.v) Trace.Read ~t0 ~hit:false ~txn
      ~completed_by:(Network.cur_msg t.network);
    var.proj packed
  end

let write t p var x =
  t.n_writes <- t.n_writes + 1;
  let value = var.inj x in
  let sole = Strategy.sole_copy t.inst p var.v in
  if sole then begin
    t.n_write_hits <- t.n_write_hits + 1;
    Network.charge t.network p t.write_hit_cost;
    trace_op t p (Some var.v) Trace.Write ~t0:(Network.now t.network) ~hit:true;
    var.v.Types.value <- value
  end
  else begin
    Network.flush_charge t.network p;
    let t0 = Network.now t.network in
    let txn = open_txn t in
    blocking_op t p (fun resume -> Strategy.write t.inst p var.v value ~k:resume);
    trace_op t p (Some var.v) Trace.Write ~t0 ~hit:false ~txn
      ~completed_by:(Network.cur_msg t.network)
  end

let lock t p var =
  Network.flush_charge t.network p;
  let t0 = Network.now t.network in
  let txn = open_txn t in
  blocking_op t p (fun resume -> Strategy.lock t.inst p var.v ~k:resume);
  trace_op t p (Some var.v) Trace.Lock ~t0 ~hit:false ~txn
    ~completed_by:(Network.cur_msg t.network)

let unlock t p var =
  Network.charge t.network p t.write_hit_cost;
  (* Non-blocking, but the release messages it triggers (token hand-off,
     next-grant) deserve their own causal id. *)
  let txn = open_txn t in
  trace_op t p (Some var.v) Trace.Unlock ~t0:(Network.now t.network) ~hit:true
    ~txn;
  Strategy.unlock t.inst p var.v

let barrier t p =
  Network.flush_charge t.network p;
  let t0 = Network.now t.network in
  let txn = open_txn t in
  blocking_op t p (fun resume -> Sync.barrier t.sync p ~k:resume);
  trace_op t p None Trace.Barrier ~t0 ~hit:false ~txn
    ~completed_by:(Network.cur_msg t.network)

type 'a reducer = { red : 'a Sync.reducer; red_size : int }

let reducer t ~combine ~size = { red = Sync.reducer t.sync ~combine ~size; red_size = size }

let reduce t p r x =
  Network.flush_charge t.network p;
  let t0 = Network.now t.network in
  let txn = open_txn t in
  let y = blocking_op t p (fun resume -> Sync.reduce t.sync r.red p x ~k:resume) in
  trace_op ~size:r.red_size t p None Trace.Reduce ~t0 ~hit:false ~txn
    ~completed_by:(Network.cur_msg t.network);
  y

let peek var = var.proj var.v.Types.value
let var_name var = var.v.Types.name
let reads t = t.n_reads
let writes t = t.n_writes
let read_hits t = t.n_read_hits
let write_hits t = t.n_write_hits

let ncopies t var = Strategy.ncopies t.inst var.v
let evictions t = Strategy.evictions t.inst
let remaps t = Strategy.remaps t.inst
let copy_holder_places t var = Strategy.copy_holder_places t.inst var.v
let strategy_id t = Strategy.family_id t.spec
let access_tree_handle t = t.tree
let typed var = var.v
let retire_var t var = Strategy.retire t.inst var.v
let validate_var t var = Strategy.validate t.inst var.v
