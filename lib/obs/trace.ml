type dsm_op = Read | Write | Lock | Unlock | Barrier | Reduce

type drop_reason = Invalidated | Evicted

type loss_reason = Loss_random | Loss_link_down | Loss_crashed

type event =
  | Msg_send of {
      ts : float;
      id : int;
      parent : int;
      txn : int;
      inject : float;
      level : int;
      src : int;
      dst : int;
      size : int;
      local : bool;
    }
  | Msg_deliver of {
      ts : float;
      id : int;
      txn : int;
      handled : float;
      src : int;
      dst : int;
      size : int;
    }
  | Link_xfer of {
      start : float;
      finish : float;
      link : int;
      msg : int;
      txn : int;
      level : int;
      src : int;
      dst : int;
      size : int;
    }
  | Var_decl of {
      ts : float;
      var : int;
      var_name : string;
      size : int;
      owner : int;
    }
  | Dsm_access of {
      ts : float;
      dur : float;
      node : int;
      var : int;
      var_name : string;
      op : dsm_op;
      size : int;
      hit : bool;
      txn : int;
      completed_by : int;
    }
  | Copy_add of {
      ts : float;
      node : int;
      var : int;
      var_name : string;
      tnode : int;
      level : int;
    }
  | Copy_drop of {
      ts : float;
      node : int;
      var : int;
      var_name : string;
      tnode : int;
      level : int;
      reason : drop_reason;
    }
  | Remap of {
      ts : float;
      var : int;
      var_name : string;
      tnode : int;
      level : int;
      from_node : int;
      to_node : int;
    }
  | Msg_lost of {
      ts : float;
      msg : int;
      txn : int;
      src : int;
      dst : int;
      size : int;
      reason : loss_reason;
    }
  | Msg_retry of {
      ts : float;
      msg : int;
      txn : int;
      src : int;
      dst : int;
      size : int;
      attempt : int;
    }

let timestamp = function
  | Msg_send { ts; _ } -> ts
  | Msg_deliver { ts; _ } -> ts
  | Link_xfer { start; _ } -> start
  | Var_decl { ts; _ } -> ts
  | Dsm_access { ts; _ } -> ts
  | Copy_add { ts; _ } -> ts
  | Copy_drop { ts; _ } -> ts
  | Remap { ts; _ } -> ts
  | Msg_lost { ts; _ } -> ts
  | Msg_retry { ts; _ } -> ts

type sink = {
  on : bool;
  buffer : bool;
  mutable rev_events : event list;
  mutable n : int;
  on_event : (event -> unit) option;
}

let null = { on = false; buffer = false; rev_events = []; n = 0; on_event = None }
let create () = { on = true; buffer = true; rev_events = []; n = 0; on_event = None }

let stream f =
  { on = true; buffer = false; rev_events = []; n = 0; on_event = Some f }

let enabled s = s.on

let emit s e =
  if s.on then begin
    if s.buffer then s.rev_events <- e :: s.rev_events;
    s.n <- s.n + 1;
    match s.on_event with Some f -> f e | None -> ()
  end

let count s = s.n
let events s = List.rev s.rev_events

(* A sink equal to [s] except that [f] also sees every event. Forcing [on]
   makes wrapping [null] yield a listener-only sink: emission turns on, but
   emission only constructs values — it never feeds back into the
   simulation (the flight recorder's armed-vs-disarmed identity test pins
   this down). The result is a fresh record; callers replace [s] with it
   wholesale, so the original's buffer is never read. *)
let with_listener s f =
  let on_event =
    match s.on_event with
    | Some g when s.on -> Some (fun e -> f e; g e)
    | _ -> Some f
  in
  { on = true; buffer = s.on && s.buffer; rev_events = []; n = 0; on_event }

(* ------------------------------------------------------------------ *)
(* JSONL event codec (writer half; the reader lives in Streaming)      *)
(* ------------------------------------------------------------------ *)

let op_code = function
  | Read -> "r"
  | Write -> "w"
  | Lock -> "l"
  | Unlock -> "u"
  | Barrier -> "b"
  | Reduce -> "x"

let op_of_code = function
  | "r" -> Some Read
  | "w" -> Some Write
  | "l" -> Some Lock
  | "u" -> Some Unlock
  | "b" -> Some Barrier
  | "x" -> Some Reduce
  | _ -> None

let drop_code = function Invalidated -> "inv" | Evicted -> "evict"

let drop_of_code = function
  | "inv" -> Some Invalidated
  | "evict" -> Some Evicted
  | _ -> None

let loss_code = function
  | Loss_random -> "rand"
  | Loss_link_down -> "down"
  | Loss_crashed -> "crash"

let loss_of_code = function
  | "rand" -> Some Loss_random
  | "down" -> Some Loss_link_down
  | "crash" -> Some Loss_crashed
  | _ -> None

(* Compact keys keep big traces small; the ["e"] tag discriminates. The
   field order is fixed so the writer is byte-stable (a committed golden
   trace guards it). *)
let event_to_json e =
  let open Json in
  match e with
  | Msg_send { ts; id; parent; txn; inject; level; src; dst; size; local } ->
      Obj
        [ ("e", String "send"); ("ts", Float ts); ("id", Int id);
          ("par", Int parent); ("txn", Int txn); ("inj", Float inject);
          ("lv", Int level); ("src", Int src); ("dst", Int dst);
          ("sz", Int size); ("loc", Bool local) ]
  | Msg_deliver { ts; id; txn; handled; src; dst; size } ->
      Obj
        [ ("e", String "dlv"); ("ts", Float ts); ("id", Int id);
          ("txn", Int txn); ("h", Float handled); ("src", Int src);
          ("dst", Int dst); ("sz", Int size) ]
  | Link_xfer { start; finish; link; msg; txn; level; src; dst; size } ->
      Obj
        [ ("e", String "xfer"); ("s", Float start); ("f", Float finish);
          ("lk", Int link); ("msg", Int msg); ("txn", Int txn);
          ("lv", Int level); ("src", Int src); ("dst", Int dst);
          ("sz", Int size) ]
  | Var_decl { ts; var; var_name; size; owner } ->
      Obj
        [ ("e", String "var"); ("ts", Float ts); ("v", Int var);
          ("name", String var_name); ("sz", Int size); ("own", Int owner) ]
  | Dsm_access { ts; dur; node; var; var_name; op; size; hit; txn;
                 completed_by } ->
      Obj
        [ ("e", String "dsm"); ("ts", Float ts); ("dur", Float dur);
          ("n", Int node); ("v", Int var); ("name", String var_name);
          ("op", String (op_code op)); ("sz", Int size); ("hit", Bool hit);
          ("txn", Int txn); ("cb", Int completed_by) ]
  | Copy_add { ts; node; var; var_name; tnode; level } ->
      Obj
        [ ("e", String "cadd"); ("ts", Float ts); ("n", Int node);
          ("v", Int var); ("name", String var_name); ("tn", Int tnode);
          ("lv", Int level) ]
  | Copy_drop { ts; node; var; var_name; tnode; level; reason } ->
      Obj
        [ ("e", String "cdrop"); ("ts", Float ts); ("n", Int node);
          ("v", Int var); ("name", String var_name); ("tn", Int tnode);
          ("lv", Int level); ("why", String (drop_code reason)) ]
  | Remap { ts; var; var_name; tnode; level; from_node; to_node } ->
      Obj
        [ ("e", String "remap"); ("ts", Float ts); ("v", Int var);
          ("name", String var_name); ("tn", Int tnode); ("lv", Int level);
          ("from", Int from_node); ("to", Int to_node) ]
  | Msg_lost { ts; msg; txn; src; dst; size; reason } ->
      Obj
        [ ("e", String "lost"); ("ts", Float ts); ("msg", Int msg);
          ("txn", Int txn); ("src", Int src); ("dst", Int dst);
          ("sz", Int size); ("why", String (loss_code reason)) ]
  | Msg_retry { ts; msg; txn; src; dst; size; attempt } ->
      Obj
        [ ("e", String "retry"); ("ts", Float ts); ("msg", Int msg);
          ("txn", Int txn); ("src", Int src); ("dst", Int dst);
          ("sz", Int size); ("att", Int attempt) ]

let write_event oc e =
  let b = Buffer.create 160 in
  Json.to_buffer b (event_to_json e);
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b
