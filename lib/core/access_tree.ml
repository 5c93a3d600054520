module Mesh = Diva_mesh.Mesh
module Deco = Diva_mesh.Decomposition
module Embedding = Diva_mesh.Embedding
module Network = Diva_simnet.Network
module Trace = Diva_obs.Trace

type body =
  | Rreq of { origin : int }
  | Rrep of { origins : int list }
  | Rpush  (* speculative copy pushed one level down the tree (prefetch) *)
  | Wreq of { origin : int }
  | Winv
  | Wack
  | Wdata of { origin : int }
  | Lreq
  | Ltok
  | Rmove  (* state transfer of a remapped tree node; no handler action *)

type Network.payload +=
  | At of { var_id : int; from : int; tnode : int; body : body }

(* State of a tree node that only locks, capacity eviction and remapping
   use; most nodes of most runs never need it, so it is a side record
   allocated on first use ([side]). *)
type side = {
  (* Raymond's token-based mutual exclusion, on the same tree. *)
  mutable tok_toward : int;  (* neighbour toward the token; -1 = token here *)
  mutable lqueue : int list;  (* FIFO of requesting directions (or self) *)
  mutable lasked : bool;
  mutable locked : bool;
  mutable lock_k : unit -> unit;  (* leaf: pending lock's continuation *)
  mutable last_use : int;  (* LRU tick; kept only under a capacity bound *)
  mutable use_count : int;  (* lifetime touches, for frequency eviction *)
  mutable traffic : int;  (* messages served, for the remapping variant *)
}

let no_lock_waiter () = assert false

(* The side record of every node that has none yet. Never mutated: [side]
   replaces it before any write. *)
let no_side =
  { tok_toward = -1; lqueue = []; lasked = false; locked = false;
    lock_k = no_lock_waiter; last_use = 0; use_count = 0; traffic = 0 }

(* Per-(variable, tree-node) protocol state. Created lazily: an untouched
   node holds the shared [vacant] record, and its copy flag and pointers
   are derivable from the variable's initial owner. *)
type tstate = {
  mutable place : int;  (* mesh node hosting the tree node; remapping moves it *)
  mutable has_copy : bool;
  mutable toward : int;  (* neighbour toward the copy component; -1 = copy *)
  mutable comp_edges : int list;  (* neighbours believed to be in the component *)
  mutable read_pending : bool;  (* forwarded a read, reply not yet back *)
  mutable parked : int list;  (* origins combined onto the in-flight reply *)
  mutable inv_waiting : int;  (* outstanding invalidation acks *)
  mutable inv_pred : int;  (* where to ack once [inv_waiting] drains; -1 = here *)
  mutable readers : (Value.t -> unit) list;  (* leaf: waiting reads, newest first *)
  mutable side : side;  (* [no_side] until first needed *)
}

(* The placeholder of every untouched slot. Never mutated: [get_state]
   replaces it before any write. *)
let vacant =
  { place = -1; has_copy = false; toward = -1; comp_edges = [];
    read_pending = false; parked = []; inv_waiting = 0; inv_pred = -1;
    readers = []; side = no_side }

(* The tree nodes of a variable sit in chunks of [chunk] consecutive
   preorder ids (a subtree is one contiguous id range, so a small subtree
   spans few chunks), allocated when one of their nodes is first
   materialised; [no_chunk] stands for a chunk none of whose nodes was
   ever touched. *)
let chunk_bits = 3
let chunk = 1 lsl chunk_bits
let no_chunk : tstate array = [||]

(* Queued operations remember the causal transaction that issued them:
   they are dequeued from inside some other transaction's handler, and
   their protocol messages must be attributed to the original one. *)
type op =
  | Oread of { o_p : Types.proc; o_txn : int; o_k : Value.t -> unit }
  | Owrite of {
      o_p : Types.proc;
      o_txn : int;
      o_v : Value.t;
      o_k : unit -> unit;
    }

type wtxn = {
  w_origin : int;  (* writer's leaf tree node *)
  w_value : Value.t;
  w_done : unit -> unit;
  mutable w_u : int;  (* component node coordinating the invalidation *)
}

(* Per-variable transaction control: writes are serialized against each
   other and against in-flight reads; cache hits bypass this entirely. *)
type ctl = {
  var : Types.var;
  dir : tstate array array;  (* chunks by preorder id; [vacant] = untouched *)
  mutable ncopies : int;
  mutable reading : int;  (* read transactions in flight *)
  mutable writing : bool;
  pending : op Queue.t;
  mutable wtxn : wtxn option;
  mutable pushes : int;  (* speculative Rpush messages in flight *)
  mutable retired : bool;  (* retire deferred until the pushes land *)
}

type t = {
  net : Network.t;
  deco : Deco.t;
  embedding : Embedding.kind;
  capacity : int option;
  combining : bool;
  remap_threshold : int option;
  eviction : Strategy.eviction;
  prefetch : bool;
  remap_rng : Diva_util.Prng.t;
  mutable remap_count : int;
  mutable vars : ctl option array;  (* by variable id; [None] = untouched or retired *)
  mem_used : int array;  (* bytes per processor, only if capacity is set *)
  held : (int, unit) Hashtbl.t array;  (* per processor: [key]s of copies *)
  mutable lru_tick : int;
  mutable eviction_count : int;
}

let create net deco ~embedding ?capacity ?(combining = true) ?remap_threshold
    ?(eviction = Strategy.Lru) ?(prefetch = false) () =
  {
    net;
    deco;
    embedding;
    capacity;
    combining;
    remap_threshold;
    eviction;
    prefetch;
    remap_rng = Diva_util.Prng.split (Network.rng net);
    remap_count = 0;
    vars = Array.make 1024 None;
    mem_used = Array.make (Network.num_nodes net) 0;
    held =
      (match capacity with
      | None -> [||]
      | Some _ -> Array.init (Network.num_nodes net) (fun _ -> Hashtbl.create 8));
    lru_tick = 0;
    eviction_count = 0;
  }

(* Capacity-registry key of a (variable, tree node) pair. *)
let key t var_id tnode = (var_id * t.deco.Deco.num_tree_nodes) + tnode

let leaf t p = t.deco.Deco.leaf_of_proc.(p)

let find_ctl t id = if id < Array.length t.vars then t.vars.(id) else None

let get_ctl t (var : Types.var) =
  match find_ctl t var.Types.id with
  | Some c -> c
  | None ->
      let id = var.Types.id in
      if id >= Array.length t.vars then begin
        let vars = Array.make (max (id + 1) (2 * Array.length t.vars)) None in
        Array.blit t.vars 0 vars 0 (Array.length t.vars);
        t.vars <- vars
      end;
      let c =
        { var;
          dir =
            Array.make
              ((t.deco.Deco.num_tree_nodes + chunk - 1) lsr chunk_bits)
              no_chunk;
          ncopies = 1;
          reading = 0; writing = false; pending = Queue.create (); wtxn = None;
          pushes = 0; retired = false }
      in
      t.vars.(id) <- Some c;
      c

(* Read-only: the node's state, [vacant] if it was never materialised. *)
let peek (ctl : ctl) tnode =
  let c = ctl.dir.(tnode lsr chunk_bits) in
  if c == no_chunk then vacant else c.(tnode land (chunk - 1))

(* An untouched node points toward the initial owner's leaf. *)
let initial_toward t (ctl : ctl) tnode =
  let owner_leaf = leaf t ctl.var.Types.owner in
  if tnode = owner_leaf then -1
  else Deco.next_hop t.deco ~from:tnode ~target:owner_leaf

(* [Embedding.place_lazy] recomputes the embedding rule from the tree
   root, so it runs once per touched node, when the node materialises. *)
let get_state t (ctl : ctl) tnode =
  let ci = tnode lsr chunk_bits in
  let c = ctl.dir.(ci) in
  let c =
    if c != no_chunk then c
    else begin
      let c = Array.make chunk vacant in
      ctl.dir.(ci) <- c;
      c
    end
  in
  let s = c.(tnode land (chunk - 1)) in
  if s != vacant then s
  else begin
    let toward = initial_toward t ctl tnode in
    let s =
      { place = Embedding.place_lazy t.embedding t.deco ~seed:ctl.var.Types.seed tnode;
        has_copy = (toward = -1); toward; comp_edges = []; read_pending = false;
        parked = []; inv_waiting = 0; inv_pred = -1; readers = [];
        side = no_side }
    in
    c.(tnode land (chunk - 1)) <- s;
    s
  end

(* The node's side record, allocated on first use. The token starts where
   the copy does, at the initial owner's leaf. *)
let side t ctl tnode st =
  if st.side != no_side then st.side
  else begin
    let sd =
      { tok_toward = initial_toward t ctl tnode; lqueue = []; lasked = false;
        locked = false; lock_k = no_lock_waiter; last_use = 0; use_count = 0;
        traffic = 0 }
    in
    st.side <- sd;
    sd
  end

(* Read-only: an untouched node sits at its default placement. *)
let place t (var : Types.var) tnode =
  match find_ctl t var.Types.id with
  | Some ctl when peek ctl tnode != vacant -> (peek ctl tnode).place
  | _ -> Embedding.place_lazy t.embedding t.deco ~seed:var.Types.seed tnode

(* Only eviction reads the LRU tick and touch count, so without a capacity
   bound a touch records nothing. *)
let touch t ctl tnode st =
  if t.capacity <> None then begin
    let sd = side t ctl tnode st in
    t.lru_tick <- t.lru_tick + 1;
    sd.last_use <- t.lru_tick;
    sd.use_count <- sd.use_count + 1
  end

let trace_copy_add t (ctl : ctl) tnode st =
  let tr = Network.trace t.net in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.Copy_add
         { ts = Network.now t.net; node = st.place;
           var = ctl.var.Types.id; var_name = ctl.var.Types.name; tnode;
           level = t.deco.Deco.depth.(tnode) })

let trace_copy_drop t (ctl : ctl) tnode st reason =
  let tr = Network.trace t.net in
  if Trace.enabled tr then
    Trace.emit tr
      (Trace.Copy_drop
         { ts = Network.now t.net; node = st.place;
           var = ctl.var.Types.id; var_name = ctl.var.Types.name; tnode;
           level = t.deco.Deco.depth.(tnode); reason })

let send_tree t (ctl : ctl) ~from ~tnode ~size body =
  let src = (get_state t ctl from).place and dst = (get_state t ctl tnode).place in
  Network.tag_level t.net t.deco.Deco.depth.(tnode);
  Network.send t.net ~src ~dst ~size
    (At { var_id = ctl.var.Types.id; from; tnode; body })

let send_ctl t ctl ~from ~tnode body =
  send_tree t ctl ~from ~tnode ~size:Types.control_size body

let send_data t ctl ~from ~tnode body =
  send_tree t ctl ~from ~tnode ~size:(Types.data_size ctl.var) body

(* ------------------------------------------------------------------ *)
(* Copy bookkeeping and LRU replacement                                 *)
(* ------------------------------------------------------------------ *)

(* A copy is evictable if removing it keeps the component connected (it is
   a component leaf), it is not the last copy, and no transaction is
   touching it. Eviction is silent: the remaining neighbour keeps a stale
   component edge, which the invalidation handler tolerates. *)
let evictable _t (ctl : ctl) st =
  st.has_copy && ctl.ncopies > 1
  && (not ctl.writing)
  && (not st.read_pending)
  && st.parked = []
  && st.inv_waiting = 0
  && List.length st.comp_edges <= 1

(* Scan only the copies held at [proc] (the per-processor registry), not
   the global state table. The victim minimizes the policy's score: the
   LRU tick, or the lifetime touch count (ties broken by the LRU tick, so
   frequency eviction stays deterministic). *)
let score t st =
  match t.eviction with
  | Strategy.Lru -> (st.side.last_use, 0)
  | Strategy.Freq -> (st.side.use_count, st.side.last_use)

let evict t proc =
  let nt = t.deco.Deco.num_tree_nodes in
  let best = ref None in
  Hashtbl.iter
    (fun k () ->
      match find_ctl t (k / nt) with
      | Some ctl ->
          let st = peek ctl (k mod nt) in
          if st.has_copy && evictable t ctl st then begin
            match !best with
            | Some (_, _, _, sc) when sc <= score t st -> ()
            | _ -> best := Some (k, ctl, st, score t st)
          end
      | None -> ())
    t.held.(proc);
  match !best with
  | None -> false
  | Some (k, ctl, st, _) ->
      trace_copy_drop t ctl (k mod nt) st Trace.Evicted;
      st.has_copy <- false;
      st.toward <- (match st.comp_edges with e :: _ -> e | [] -> assert false);
      st.comp_edges <- [];
      ctl.ncopies <- ctl.ncopies - 1;
      t.mem_used.(proc) <- t.mem_used.(proc) - ctl.var.Types.data_size;
      Hashtbl.remove t.held.(proc) k;
      t.eviction_count <- t.eviction_count + 1;
      true

let account_copy t (ctl : ctl) tnode st =
  match t.capacity with
  | None -> ()
  | Some cap ->
      let proc = st.place in
      t.mem_used.(proc) <- t.mem_used.(proc) + ctl.var.Types.data_size;
      Hashtbl.replace t.held.(proc) (key t ctl.var.Types.id tnode) ();
      let continue = ref true in
      while t.mem_used.(proc) > cap && !continue do
        continue := evict t proc
      done

let unaccount_copy t (ctl : ctl) tnode st =
  match t.capacity with
  | None -> ()
  | Some _ ->
      let proc = st.place in
      t.mem_used.(proc) <- t.mem_used.(proc) - ctl.var.Types.data_size;
      Hashtbl.remove t.held.(proc) (key t ctl.var.Types.id tnode)

let add_copy t ctl tnode st =
  if not st.has_copy then begin
    st.has_copy <- true;
    st.toward <- -1;
    ctl.ncopies <- ctl.ncopies + 1;
    touch t ctl tnode st;
    trace_copy_add t ctl tnode st;
    account_copy t ctl tnode st
  end

let remove_copy t ctl tnode st =
  if st.has_copy then begin
    st.has_copy <- false;
    ctl.ncopies <- ctl.ncopies - 1;
    trace_copy_drop t ctl tnode st Trace.Invalidated;
    unaccount_copy t ctl tnode st
  end

let add_edge st nb = if not (List.mem nb st.comp_edges) then st.comp_edges <- nb :: st.comp_edges

(* ------------------------------------------------------------------ *)
(* Transaction gating                                                   *)
(* ------------------------------------------------------------------ *)

let complete_reads ctl st =
  match st.readers with
  | [] -> ()
  | ks ->
      st.readers <- [];
      ctl.reading <- ctl.reading - List.length ks;
      let v = ctl.var.Types.value in
      List.iter (fun k -> k v) (List.rev ks)

let rec process_queue t ctl =
  if not ctl.writing then
    match Queue.peek_opt ctl.pending with
    | Some (Oread { o_p; o_txn; o_k }) ->
        ignore (Queue.pop ctl.pending);
        let saved = Network.cur_txn t.net in
        Network.set_txn t.net o_txn;
        start_read t ctl o_p o_k;
        Network.set_txn t.net saved;
        process_queue t ctl
    | Some (Owrite { o_p; o_txn; o_v; o_k }) when ctl.reading = 0 ->
        ignore (Queue.pop ctl.pending);
        let saved = Network.cur_txn t.net in
        Network.set_txn t.net o_txn;
        start_write t ctl o_p o_v o_k;
        Network.set_txn t.net saved
    | Some (Owrite _) | None -> ()

and start_read t ctl p k =
  ctl.reading <- ctl.reading + 1;
  let origin = leaf t p in
  let st = get_state t ctl origin in
  st.readers <- k :: st.readers;
  if st.has_copy then begin
    touch t ctl origin st;
    complete_reads ctl st;
    process_queue t ctl
  end
  else if st.read_pending then
    (* A previous read from this leaf is in flight; its reply will arrive
       here and complete every registered reader. *)
    ()
  else begin
    st.read_pending <- true;
    send_ctl t ctl ~from:origin ~tnode:st.toward (Rreq { origin })
  end

and start_write t ctl p value k =
  ctl.writing <- true;
  let origin = leaf t p in
  ctl.wtxn <- Some { w_origin = origin; w_value = value; w_done = k; w_u = origin };
  let st = get_state t ctl origin in
  if st.has_copy then begin
    touch t ctl origin st;
    begin_invalidation t ctl origin
  end
  else send_data t ctl ~from:origin ~tnode:st.toward (Wreq { origin })

and begin_invalidation t ctl u =
  (match ctl.wtxn with Some w -> w.w_u <- u | None -> assert false);
  let st = get_state t ctl u in
  let nbrs = st.comp_edges in
  st.comp_edges <- [];
  if nbrs = [] then finish_invalidation t ctl
  else begin
    st.inv_waiting <- List.length nbrs;
    st.inv_pred <- -1;
    List.iter (fun nb -> send_ctl t ctl ~from:u ~tnode:nb Winv) nbrs
  end

and finish_invalidation t ctl =
  let w = match ctl.wtxn with Some w -> w | None -> assert false in
  ctl.var.Types.value <- w.w_value;
  if ctl.ncopies <> 1 then
    failwith
      (Printf.sprintf "access tree: %d copies of %s survive invalidation"
         ctl.ncopies ctl.var.Types.name);
  if w.w_u = w.w_origin then complete_write t ctl
  else begin
    let st = get_state t ctl w.w_u in
    let nxt = Deco.next_hop t.deco ~from:w.w_u ~target:w.w_origin in
    add_edge st nxt;
    send_data t ctl ~from:w.w_u ~tnode:nxt (Wdata { origin = w.w_origin })
  end

and complete_write t ctl =
  let w = match ctl.wtxn with Some w -> w | None -> assert false in
  ctl.wtxn <- None;
  ctl.writing <- false;
  w.w_done ();
  process_queue t ctl

(* ------------------------------------------------------------------ *)
(* Message handlers                                                     *)
(* ------------------------------------------------------------------ *)

let on_rreq t ctl ~tnode ~origin =
  let st = get_state t ctl tnode in
  if st.has_copy then begin
    touch t ctl tnode st;
    let nxt = Deco.next_hop t.deco ~from:tnode ~target:origin in
    add_edge st nxt;
    send_data t ctl ~from:tnode ~tnode:nxt (Rrep { origins = [ origin ] })
  end
  else if st.read_pending && t.combining then st.parked <- origin :: st.parked
  else begin
    if t.combining then st.read_pending <- true;
    send_ctl t ctl ~from:tnode ~tnode:st.toward (Rreq { origin })
  end

(* Tree-structured prefetching: when a read reply installs a copy at a
   tree node, push speculative copies one level further down, into the
   children not already covered. One extra data message per child serves
   every later reader in that child's subtree locally (its pointer chase
   stops at the child). Each in-flight push holds a slot on [ctl.reading]
   so no write can start invalidating while a speculative copy is still
   travelling — the pushed copy always joins a quiescent component. *)
let prefetch_children t ctl tnode st =
  Array.iter
    (fun c ->
      let cs = get_state t ctl c in
      if (not cs.has_copy) && not cs.read_pending then begin
        ctl.reading <- ctl.reading + 1;
        ctl.pushes <- ctl.pushes + 1;
        cs.read_pending <- true;
        add_edge st c;
        send_data t ctl ~from:tnode ~tnode:c Rpush
      end)
    t.deco.Deco.children.(tnode)

let rec on_rrep ?(push = true) t ctl ~from ~tnode ~origins =
  let st = get_state t ctl tnode in
  add_copy t ctl tnode st;
  touch t ctl tnode st;
  add_edge st from;
  st.read_pending <- false;
  let targets =
    List.filter (fun o -> o <> tnode)
      (match st.parked with [] -> origins | parked -> origins @ parked)
  in
  st.parked <- [];
  (match targets with
  | [] -> ()
  | [ o ] ->
      let nxt = Deco.next_hop t.deco ~from:tnode ~target:o in
      add_edge st nxt;
      send_data t ctl ~from:tnode ~tnode:nxt (Rrep { origins = targets })
  | _ ->
      (* Multicast along tree branches: one message per distinct direction. *)
      let groups = Hashtbl.create 4 in
      List.iter
        (fun o ->
          let nxt = Deco.next_hop t.deco ~from:tnode ~target:o in
          let cur = Option.value ~default:[] (Hashtbl.find_opt groups nxt) in
          Hashtbl.replace groups nxt (o :: cur))
        targets;
      Hashtbl.iter
        (fun nxt os ->
          add_edge st nxt;
          send_data t ctl ~from:tnode ~tnode:nxt (Rrep { origins = os }))
        groups);
  (* Speculative pushes before completions: the pushes take their reading
     slots while no resumed fiber can have issued a write yet. Only reply
     path nodes push (a pushed copy does not push further), bounding the
     speculation to one level beyond the paths actually walked. *)
  if push && t.prefetch then prefetch_children t ctl tnode st;
  (* Completions last: they may resume fibers that issue new operations. *)
  complete_reads ctl st;
  process_queue t ctl

(* A speculative copy lands: exactly a reply with no origins to serve
   (parked requests that raced the push are served the same way an
   in-flight reply serves them). If the variable was retired while the
   push travelled, drop the push and finish the deferred retire once the
   last one lands. *)
and on_rpush t ctl ~from ~tnode =
  ctl.reading <- ctl.reading - 1;
  ctl.pushes <- ctl.pushes - 1;
  if ctl.retired then begin
    if ctl.pushes = 0 then finish_retire t ctl
  end
  else on_rrep ~push:false t ctl ~from ~tnode ~origins:[]

and finish_retire t ctl =
  if t.capacity <> None then
    for tnode = 0 to t.deco.Deco.num_tree_nodes - 1 do
      let st = peek ctl tnode in
      if st.has_copy then begin
        t.mem_used.(st.place) <- t.mem_used.(st.place) - ctl.var.Types.data_size;
        Hashtbl.remove t.held.(st.place) (key t ctl.var.Types.id tnode)
      end
    done;
  t.vars.(ctl.var.Types.id) <- None

let on_wreq t ctl ~tnode ~origin =
  let st = get_state t ctl tnode in
  if st.has_copy then begin
    touch t ctl tnode st;
    begin_invalidation t ctl tnode
  end
  else send_data t ctl ~from:tnode ~tnode:st.toward (Wreq { origin })

let on_winv t ctl ~from ~tnode =
  let st = get_state t ctl tnode in
  if not st.has_copy then begin
    (* Stale component edge left behind by a silent LRU eviction. *)
    st.toward <- from;
    send_ctl t ctl ~from:tnode ~tnode:from Wack
  end
  else begin
    remove_copy t ctl tnode st;
    st.toward <- from;
    let out = List.filter (fun nb -> nb <> from) st.comp_edges in
    st.comp_edges <- [];
    if out = [] then send_ctl t ctl ~from:tnode ~tnode:from Wack
    else begin
      st.inv_waiting <- List.length out;
      st.inv_pred <- from;
      List.iter (fun nb -> send_ctl t ctl ~from:tnode ~tnode:nb Winv) out
    end
  end

let on_wack t ctl ~tnode =
  let st = get_state t ctl tnode in
  assert (st.inv_waiting > 0);
  st.inv_waiting <- st.inv_waiting - 1;
  if st.inv_waiting = 0 then
    if st.inv_pred = -1 then finish_invalidation t ctl
    else begin
      let pred = st.inv_pred in
      st.inv_pred <- -1;
      send_ctl t ctl ~from:tnode ~tnode:pred Wack
    end

let on_wdata t ctl ~from ~tnode ~origin =
  let st = get_state t ctl tnode in
  add_copy t ctl tnode st;
  touch t ctl tnode st;
  st.comp_edges <- [ from ];
  if tnode = origin then complete_write t ctl
  else begin
    let nxt = Deco.next_hop t.deco ~from:tnode ~target:origin in
    add_edge st nxt;
    send_data t ctl ~from:tnode ~tnode:nxt (Wdata { origin })
  end

(* ------------------------------------------------------------------ *)
(* Raymond's mutual exclusion on the access tree                        *)
(* ------------------------------------------------------------------ *)

let lock_state t ctl tnode = side t ctl tnode (get_state t ctl tnode)

let rec assign_privilege t ctl tnode =
  let sd = lock_state t ctl tnode in
  if sd.tok_toward = -1 && (not sd.locked) && sd.lqueue <> [] then begin
    let next, rest =
      match sd.lqueue with n :: r -> (n, r) | [] -> assert false
    in
    sd.lqueue <- rest;
    sd.lasked <- false;
    if next = tnode then begin
      sd.locked <- true;
      let k = sd.lock_k in
      sd.lock_k <- no_lock_waiter;
      k ()
    end
    else begin
      sd.tok_toward <- next;
      send_ctl t ctl ~from:tnode ~tnode:next Ltok;
      make_request t ctl tnode
    end
  end

and make_request t ctl tnode =
  let sd = lock_state t ctl tnode in
  if sd.tok_toward <> -1 && sd.lqueue <> [] && not sd.lasked then begin
    sd.lasked <- true;
    send_ctl t ctl ~from:tnode ~tnode:sd.tok_toward Lreq
  end

let on_lreq t ctl ~from ~tnode =
  let sd = lock_state t ctl tnode in
  sd.lqueue <- sd.lqueue @ [ from ];
  assign_privilege t ctl tnode;
  make_request t ctl tnode

let on_ltok t ctl ~tnode =
  let sd = lock_state t ctl tnode in
  sd.tok_toward <- -1;
  assign_privilege t ctl tnode;
  make_request t ctl tnode

let lock t p var ~k =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let sd = lock_state t ctl tnode in
  sd.lock_k <- k;
  sd.lqueue <- sd.lqueue @ [ tnode ];
  assign_privilege t ctl tnode;
  make_request t ctl tnode

let unlock t p var =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let sd = lock_state t ctl tnode in
  if not sd.locked then
    invalid_arg "Access_tree.unlock: processor does not hold the lock";
  sd.locked <- false;
  assign_privilege t ctl tnode;
  make_request t ctl tnode

(* ------------------------------------------------------------------ *)
(* Public operations                                                    *)
(* ------------------------------------------------------------------ *)

let cached t p var =
  let ctl = get_ctl t var in
  let tnode = leaf t p in
  let st = get_state t ctl tnode in
  if st.has_copy then touch t ctl tnode st;
  st.has_copy

let sole_copy t p var =
  let ctl = get_ctl t var in
  let st = get_state t ctl (leaf t p) in
  st.has_copy && ctl.ncopies = 1 && (not ctl.writing) && ctl.reading = 0
  && Queue.is_empty ctl.pending

let read t p var ~k =
  let ctl = get_ctl t var in
  if ctl.writing || not (Queue.is_empty ctl.pending) then
    Queue.add (Oread { o_p = p; o_txn = Network.cur_txn t.net; o_k = k })
      ctl.pending
  else start_read t ctl p k

let write t p var value ~k =
  let ctl = get_ctl t var in
  if ctl.writing || ctl.reading > 0 || not (Queue.is_empty ctl.pending) then
    Queue.add
      (Owrite { o_p = p; o_txn = Network.cur_txn t.net; o_v = value; o_k = k })
      ctl.pending
  else start_write t ctl p value k

(* The remapping variant of the original FOCS'97 strategy: once a tree node
   has served [threshold] messages it moves to a fresh random processor of
   its submesh. In-flight messages still reach its state (states are keyed
   by tree-node id, not by placement); only the link traffic changes. *)
let maybe_remap t (ctl : ctl) tnode =
  match t.remap_threshold with
  | None -> ()
  | Some threshold ->
      let st = get_state t ctl tnode in
      let sd = side t ctl tnode st in
      sd.traffic <- sd.traffic + 1;
      if sd.traffic >= threshold && not (Deco.is_leaf t.deco tnode) then begin
        sd.traffic <- 0;
        let sm = t.deco.Deco.submesh.(tnode) in
        let mesh = t.deco.Deco.mesh in
        let coords =
          Array.mapi
            (fun k o -> o + Diva_util.Prng.int t.remap_rng sm.Deco.sizes.(k))
            sm.Deco.origin
        in
        let fresh = Mesh.node_at_nd mesh coords in
        let old = st.place in
        if fresh <> old then begin
          (* Move the node's state (and copy, if any). *)
          let size =
            if st.has_copy then Types.data_size ctl.var else Types.control_size
          in
          (match t.capacity with
          | Some _ when st.has_copy ->
              let k = key t ctl.var.Types.id tnode in
              t.mem_used.(old) <- t.mem_used.(old) - ctl.var.Types.data_size;
              Hashtbl.remove t.held.(old) k;
              t.mem_used.(fresh) <- t.mem_used.(fresh) + ctl.var.Types.data_size;
              Hashtbl.replace t.held.(fresh) k ()
          | _ -> ());
          st.place <- fresh;
          t.remap_count <- t.remap_count + 1;
          let tr = Network.trace t.net in
          if Trace.enabled tr then
            Trace.emit tr
              (Trace.Remap
                 { ts = Network.now t.net; var = ctl.var.Types.id;
                   var_name = ctl.var.Types.name; tnode;
                   level = t.deco.Deco.depth.(tnode); from_node = old;
                   to_node = fresh });
          Network.tag_level t.net t.deco.Deco.depth.(tnode);
          Network.send t.net ~src:old ~dst:fresh ~size
            (At { var_id = ctl.var.Types.id; from = tnode; tnode; body = Rmove })
        end
      end

let handle t (msg : Network.msg) =
  match msg.Network.m_payload with
  | At { var_id; from; tnode; body } ->
      let ctl =
        match find_ctl t var_id with
        | Some c -> c
        | None -> failwith "Access_tree.handle: message for unknown variable"
      in
      (match body with
      | Rreq { origin } -> on_rreq t ctl ~tnode ~origin
      | Rrep { origins } -> on_rrep t ctl ~from ~tnode ~origins
      | Rpush -> on_rpush t ctl ~from ~tnode
      | Wreq { origin } -> on_wreq t ctl ~tnode ~origin
      | Winv -> on_winv t ctl ~from ~tnode
      | Wack -> on_wack t ctl ~tnode
      | Wdata { origin } -> on_wdata t ctl ~from ~tnode ~origin
      | Lreq -> on_lreq t ctl ~from ~tnode
      | Ltok -> on_ltok t ctl ~tnode
      | Rmove -> ());
      (match body with Rmove -> () | _ -> maybe_remap t ctl tnode);
      true
  | _ -> false

let ncopies t var = (get_ctl t var).ncopies

(* Read-only: untouched slots hold their implicit state (a copy only at
   the initial owner's leaf). *)
let copy_holders t (var : Types.var) =
  let owner_leaf = leaf t var.Types.owner in
  match find_ctl t var.Types.id with
  | None -> [ owner_leaf ]
  | Some ctl ->
      let acc = ref [] in
      for tnode = t.deco.Deco.num_tree_nodes - 1 downto 0 do
        let st = peek ctl tnode in
        if (st == vacant && tnode = owner_leaf) || st.has_copy then
          acc := tnode :: !acc
      done;
      !acc

let evictions t = t.eviction_count
let remaps t = t.remap_count

let retire t (var : Types.var) =
  match find_ctl t var.Types.id with
  | None -> ()
  | Some ctl ->
      if
        ctl.writing
        || ctl.reading - ctl.pushes > 0
        || not (Queue.is_empty ctl.pending)
      then invalid_arg "Access_tree.retire: variable has transactions in flight";
      (* Speculative pushes are not application transactions: the state
         must outlive them (their arrival looks up the variable), so the
         actual teardown is deferred to the last push's landing. *)
      if ctl.pushes > 0 then ctl.retired <- true else finish_retire t ctl

let deco t = t.deco

let validate t (var : Types.var) =
  match find_ctl t var.Types.id with
  | None -> Ok ()  (* never accessed: implicit singleton at the owner *)
  | Some ctl ->
      let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
      let nt = t.deco.Deco.num_tree_nodes in
      if ctl.writing || ctl.reading > 0 || not (Queue.is_empty ctl.pending) then
        err "%s: transactions in flight" var.Types.name
      else begin
        let holders = copy_holders t var in
        let nh = List.length holders in
        let holder = Array.make nt false in
        List.iter (fun h -> holder.(h) <- true) holders;
        (* A set of tree nodes is connected iff exactly one of its members
           has its tree parent outside the set. *)
        let tops =
          List.length
            (List.filter
               (fun h ->
                 let p = t.deco.Deco.parent.(h) in
                 p < 0 || not holder.(p))
               holders)
        in
        (* Every materialised pointer chain reaches the component; an
           untouched node points toward the initial owner's leaf. *)
        let owner_leaf = leaf t var.Types.owner in
        let rec reaches cur steps =
          cur >= 0 && steps <= nt
          && (holder.(cur)
             ||
             let st = peek ctl cur in
             reaches
               (if st == vacant then
                  Deco.next_hop t.deco ~from:cur ~target:owner_leaf
                else st.toward)
               (steps + 1))
        in
        let rec lost tnode =
          if tnode >= nt then None
          else
            let st = peek ctl tnode in
            if st != vacant && (not st.has_copy) && not (reaches tnode 0) then
              Some tnode
            else lost (tnode + 1)
        in
        if nh <> ctl.ncopies then
          err "%s: ncopies %d but %d holders" var.Types.name ctl.ncopies nh
        else if nh = 0 then err "%s: no copies at all" var.Types.name
        else if tops <> 1 then err "%s: copy component disconnected" var.Types.name
        else
          match lost 0 with
          | Some tn -> err "%s: pointer chain from node %d is lost" var.Types.name tn
          | None -> Ok ()
      end

(* ------------------------------------------------------------------ *)
(* STRATEGY instance                                                    *)
(* ------------------------------------------------------------------ *)

module Impl :
  Strategy.STRATEGY with type t = t and type config = Strategy.tree_config =
struct
  type nonrec t = t
  type config = Strategy.tree_config

  let create net (c : Strategy.tree_config) =
    let deco =
      Deco.build (Network.mesh net) ~arity:(Deco.arity_of_int c.arity)
        ~leaf_size:c.leaf_size
    in
    create net deco ~embedding:c.embedding ?capacity:c.capacity
      ~combining:c.combining ?remap_threshold:c.remap_threshold
      ~eviction:c.eviction ~prefetch:c.prefetch ()

  let sync_deco t = Some t.deco
  let handle = handle
  let cached = cached
  let sole_copy = sole_copy
  let read = read
  let write = write
  let lock = lock
  let unlock = unlock
  let ncopies = ncopies

  let copy_holder_places t var =
    List.sort_uniq compare (List.map (place t var) (copy_holders t var))

  let evictions = evictions
  let remaps = remaps
  let retire = retire
  let validate = validate
end
