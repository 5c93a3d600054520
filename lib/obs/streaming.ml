(* Bounded-memory streaming analysis: fold the live event stream into the
   same {!Analysis.summary} the batch path produces — bit for bit — while
   retiring each transaction's message records the moment its completion
   event passes. Peak residency is O(concurrent transactions x protocol
   fan-out), independent of run length; {!peak_msgs} exposes the
   high-water mark so harnesses can assert it.

   Why the folds agree with batch exactly (floats included):
   - The simulator emits eagerly: a transaction's chain messages have
     their sends, crossings and deliveries in the stream before the
     transaction's [Dsm_access], so the records retained at completion
     hold everything {!Analysis.decompose_chain} clips into the blocking
     window. Crossings emitted later (post-completion retransmissions)
     start at or after the window's end and clip to nothing.
   - Per-operation and critical-path sums are fed through the shared
     {!Analysis.Txn_fold} in completion order on both sides; link and
     window sums fold in emission order on both sides.
   - Side-branch snapshots are taken at the completion event on both
     sides ({!Spans.build} takes the identical cut). *)

(* Retained state of one in-flight message of a pending transaction.
   Mirrors the slice of [Spans.msg] the cost math reads; freed when the
   transaction completes. *)
type srec = {
  r_id : int;
  r_parent : int;
  r_txn : int;
  r_local : bool;
  r_sent : float;
  r_inject : float;
  mutable r_handled : float option;
  mutable r_chain : bool;  (* on the completing chain; set at completion *)
  mutable r_xs : float array;  (* start, finish, ...: doubling, arrival order *)
  mutable r_nx : int;  (* crossings held in [r_xs] *)
  mutable r_xfer_us : float;  (* summed occupancy, folded in arrival order *)
}

type t = {
  ov : Analysis.overheads;
  top_k : int;
  num_windows : int;
  (* bounded working set *)
  msgs : (int, srec) Hashtbl.t;  (* messages of not-yet-completed txns *)
  pending : (int, int list ref) Hashtbl.t;  (* txn -> its msg ids, newest first *)
  ring : int array;  (* recently completed txn ids (circular) *)
  ring_set : (int, unit) Hashtbl.t;
  mutable ring_pos : int;
  mutable ring_len : int;
  (* event-self-contained folds *)
  levels : (int, level_acc) Hashtbl.t;
  links : (int, link_acc) Hashtbl.t;
  txn_fold : Analysis.Txn_fold.t;
  (* Every link crossing, four scalars each, in emission order: window
     boundaries need the end time, so binning must wait for [finalize].
     Replaying these through {!Analysis.Windows_fold} there performs the
     identical float operations in the identical order as a second pass
     over the file would, keeping the summary bit-identical while the
     analysis itself stays single-pass. Empty when [num_windows <= 0]. *)
  mutable x_link : int array;
  mutable x_size : int array;
  mutable x_start : float array;
  mutable x_finish : float array;
  mutable x_n : int;
  mutable n_events : int;
  mutable n_msgs : int;
  mutable t_end : float;
  mutable peak : int;
}

and level_acc = {
  mutable la_msgs : int;
  mutable la_bytes : int;
  mutable la_local : int;
  mutable la_crossings : int;
  mutable la_link_bytes : int;
}

and link_acc = {
  mutable lka_msgs : int;
  mutable lka_bytes : int;
  mutable lka_busy : float;
}

let create ?(top_k = 10) ?(num_windows = 8) ?(ring = 1024) ov =
  if ring <= 0 then invalid_arg "Streaming.create: ring must be positive";
  if num_windows > Analysis.max_windows then
    invalid_arg
      (Printf.sprintf "Streaming.create: more than %d windows"
         Analysis.max_windows);
  {
    ov;
    top_k;
    num_windows;
    msgs = Hashtbl.create 256;
    pending = Hashtbl.create 64;
    ring = Array.make ring (-1);
    ring_set = Hashtbl.create ring;
    ring_pos = 0;
    ring_len = 0;
    levels = Hashtbl.create 8;
    links = Hashtbl.create 64;
    txn_fold = Analysis.Txn_fold.create ();
    x_link = [||];
    x_size = [||];
    x_start = [||];
    x_finish = [||];
    x_n = 0;
    n_events = 0;
    n_msgs = 0;
    t_end = 0.0;
    peak = 0;
  }

let push_xfer t ~link ~size ~start ~finish =
  let cap = Array.length t.x_link in
  if t.x_n = cap then begin
    let cap' = max 1024 (2 * cap) in
    let grow mk a = let b = mk cap' in Array.blit a 0 b 0 t.x_n; b in
    t.x_link <- grow (fun n -> Array.make n 0) t.x_link;
    t.x_size <- grow (fun n -> Array.make n 0) t.x_size;
    t.x_start <- grow (fun n -> Array.make n 0.0) t.x_start;
    t.x_finish <- grow (fun n -> Array.make n 0.0) t.x_finish
  end;
  t.x_link.(t.x_n) <- link;
  t.x_size.(t.x_n) <- size;
  t.x_start.(t.x_n) <- start;
  t.x_finish.(t.x_n) <- finish;
  t.x_n <- t.x_n + 1

let ring_mem t txn = Hashtbl.mem t.ring_set txn

let ring_push t txn =
  let cap = Array.length t.ring in
  if t.ring_len = cap then Hashtbl.remove t.ring_set t.ring.(t.ring_pos)
  else t.ring_len <- t.ring_len + 1;
  t.ring.(t.ring_pos) <- txn;
  Hashtbl.replace t.ring_set txn ();
  t.ring_pos <- (t.ring_pos + 1) mod cap

let level_acc t level =
  match Hashtbl.find_opt t.levels level with
  | Some a -> a
  | None ->
      let a =
        { la_msgs = 0; la_bytes = 0; la_local = 0; la_crossings = 0;
          la_link_bytes = 0 }
      in
      Hashtbl.add t.levels level a;
      a

let link_acc t link =
  match Hashtbl.find_opt t.links link with
  | Some a -> a
  | None ->
      let a = { lka_msgs = 0; lka_bytes = 0; lka_busy = 0.0 } in
      Hashtbl.add t.links link a;
      a

(* Same snapshot {!Spans.build} takes at a completion event ([r_xfer_us]
   adds the crossings in its fold's order). *)
let side_of_rec (r : srec) : Spans.side =
  {
    Spans.s_id = r.r_id;
    s_local = r.r_local;
    s_sent = r.r_sent;
    s_inject = r.r_inject;
    s_handled = r.r_handled;
    s_xfer_us = r.r_xfer_us;
  }

let chain_link_of_rec (r : srec) : Analysis.chain_link =
  {
    Analysis.cl_local = r.r_local;
    cl_inject = r.r_inject;
    cl_handled = r.r_handled;
    cl_xfers = Array.sub r.r_xs 0 (2 * r.r_nx);
  }

let push_crossing r ~start ~finish =
  let k = 2 * r.r_nx in
  if k = Array.length r.r_xs then begin
    let xs = Array.make (max 8 (2 * k)) 0.0 in
    Array.blit r.r_xs 0 xs 0 k;
    r.r_xs <- xs
  end;
  r.r_xs.(k) <- start;
  r.r_xs.(k + 1) <- finish;
  r.r_nx <- r.r_nx + 1;
  r.r_xfer_us <- r.r_xfer_us +. (finish -. start)

let complete t ~node ~op ~ts ~dur ~txn ~completed_by =
  (* Mark the completing chain. Same guards as [Spans.chain]: parent ids
     are strictly smaller than child ids, and the walk stops at the first
     message outside the transaction — for us also the first retired
     message, which is the same thing (every message of a pending
     transaction is still live). *)
  let rec mark prev id =
    if id >= 0 && id < prev then
      match Hashtbl.find_opt t.msgs id with
      | Some r when r.r_txn = txn ->
          r.r_chain <- true;
          mark id r.r_parent
      | _ -> ()
  in
  mark max_int completed_by;
  let ids =
    match Hashtbl.find_opt t.pending txn with
    | Some ids -> List.rev !ids
    | None -> []
  in
  (* One pass, oldest first: chain links for the sweep, and the side
     branches summed in the order {!Analysis.sides_cost} would. *)
  let links = ref [] and side_msgs = ref 0 in
  let side_cost = ref Analysis.zero_cost in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.msgs id with
      | Some r when r.r_chain -> links := chain_link_of_rec r :: !links
      | Some r ->
          incr side_msgs;
          side_cost :=
            Analysis.add_cost !side_cost
              (Analysis.side_cost t.ov (side_of_rec r))
      | None -> ())
    ids;
  let chain_cost =
    Analysis.decompose_chain t.ov ~t0:ts ~dur (List.rev !links)
  in
  Analysis.Txn_fold.feed t.txn_fold ~node ~op ~t_start:ts ~dur ~chain_cost
    ~side_msgs:!side_msgs ~side_cost:!side_cost;
  (* Retire: free every record of the transaction and remember its id so
     stray post-completion sends do not repopulate the table. *)
  List.iter (Hashtbl.remove t.msgs) ids;
  Hashtbl.remove t.pending txn;
  ring_push t txn

let feed t e =
  t.n_events <- t.n_events + 1;
  match e with
  | Trace.Msg_send { ts; id; parent; txn; inject; level; size; local; _ } ->
      t.n_msgs <- t.n_msgs + 1;
      let la = level_acc t level in
      la.la_msgs <- la.la_msgs + 1;
      la.la_bytes <- la.la_bytes + size;
      if local then begin
        la.la_local <- la.la_local + 1;
        t.t_end <- Float.max t.t_end inject
      end;
      if txn >= 0 && not (ring_mem t txn) then begin
        Hashtbl.replace t.msgs id
          {
            r_id = id;
            r_parent = parent;
            r_txn = txn;
            r_local = local;
            r_sent = ts;
            r_inject = inject;
            (* A local message's handler runs at [inject]; there is no
               separate delivery event. *)
            r_handled = (if local then Some inject else None);
            r_chain = false;
            r_xs = [||];
            r_nx = 0;
            r_xfer_us = 0.0;
          };
        (match Hashtbl.find_opt t.pending txn with
        | Some ids -> ids := id :: !ids
        | None -> Hashtbl.add t.pending txn (ref [ id ]));
        let live = Hashtbl.length t.msgs in
        if live > t.peak then t.peak <- live
      end
  | Trace.Link_xfer { start; finish; link; msg; level; size; _ } ->
      if msg >= 0 then begin
        let la = level_acc t level in
        la.la_crossings <- la.la_crossings + 1;
        la.la_link_bytes <- la.la_link_bytes + size;
        let lk = link_acc t link in
        lk.lka_msgs <- lk.lka_msgs + 1;
        lk.lka_bytes <- lk.lka_bytes + size;
        lk.lka_busy <- lk.lka_busy +. (finish -. start);
        t.t_end <- Float.max t.t_end finish;
        if t.num_windows > 0 then push_xfer t ~link ~size ~start ~finish;
        match Hashtbl.find_opt t.msgs msg with
        | Some r -> push_crossing r ~start ~finish
        | None -> ()
      end
  | Trace.Msg_deliver { id; handled; _ } ->
      if id >= 0 then begin
        t.t_end <- Float.max t.t_end handled;
        match Hashtbl.find_opt t.msgs id with
        | Some r when r.r_handled = None ->
            (* Retransmission duplicates keep the first delivery. *)
            r.r_handled <- Some handled
        | _ -> ()
      end
  | Trace.Dsm_access { ts; dur; node; op; txn; completed_by; _ }
    when txn >= 0 ->
      complete t ~node ~op ~ts ~dur ~txn ~completed_by
  | _ -> ()

let sink t = Trace.stream (feed t)
let events_seen t = t.n_events
let num_msgs t = t.n_msgs
let live_msgs t = Hashtbl.length t.msgs
let peak_msgs t = t.peak
let end_time t = t.t_end
let num_windows t = t.num_windows

let level_rows t =
  List.sort
    (fun (a : Analysis.level_row) b -> compare a.lv_level b.lv_level)
    (Hashtbl.fold
       (fun level a acc ->
         {
           Analysis.lv_level = level;
           lv_msgs = a.la_msgs;
           lv_bytes = a.la_bytes;
           lv_local = a.la_local;
           lv_crossings = a.la_crossings;
           lv_link_bytes = a.la_link_bytes;
         }
         :: acc)
       t.levels [])

let link_rows t =
  Hashtbl.fold
    (fun link a acc ->
      {
        Analysis.lk_link = link;
        lk_msgs = a.lka_msgs;
        lk_bytes = a.lka_bytes;
        lk_busy_us = a.lka_busy;
      }
      :: acc)
    t.links []

(* Replay the retained crossings through a fresh fold now that the end
   time is known: same operands, same order as a second pass over the
   source, so the rows are bit-identical to the batch path. *)
let fold_windows t =
  let wf = Analysis.Windows_fold.create ~n:t.num_windows ~t_end:t.t_end in
  for i = 0 to t.x_n - 1 do
    Analysis.Windows_fold.feed_xfer wf ~link:t.x_link.(i) ~size:t.x_size.(i)
      ~start:t.x_start.(i) ~finish:t.x_finish.(i)
  done;
  Analysis.Windows_fold.rows wf

let finalize ?windows t =
  let windows =
    match windows with Some ws -> ws | None -> fold_windows t
  in
  {
    Analysis.sm_num_txns = Analysis.Txn_fold.num_txns t.txn_fold;
    sm_num_msgs = t.n_msgs;
    sm_end_us = t.t_end;
    sm_critical =
      Option.map
        (fun (node, e, n, cost) ->
          { Analysis.sc_node = node; sc_end = e; sc_txns = n; sc_cost = cost })
        (Analysis.Txn_fold.critical t.txn_fold);
    sm_levels = level_rows t;
    sm_top_links = Analysis.sort_top_links ~k:t.top_k (link_rows t);
    sm_windows = windows;
    sm_ops = Analysis.Txn_fold.op_rows t.txn_fold;
  }

(* One pass over an in-memory event list — windows fold from the retained
   crossings at [finalize]. Returns the summary and the peak
   message-record residency. *)
let analyze_events ?top_k ?num_windows ?ring ov events =
  let t = create ?top_k ?num_windows ?ring ov in
  List.iter (feed t) events;
  (finalize t, t.peak)

(* ------------------------------------------------------------------ *)
(* On-disk JSONL trace format                                           *)
(* ------------------------------------------------------------------ *)

let format_name = "diva-event-trace"
let current_version = 1

type header = {
  h_version : int;
  h_app : string;
  h_dims : int array;
  h_strategy : string;
  h_seed : int;
  h_overheads : Analysis.overheads;
  h_params : (string * Json.t) list;
}

let make_header ?(params = []) ~app ~dims ~strategy ~seed ~overheads () =
  {
    h_version = current_version;
    h_app = app;
    h_dims = Array.copy dims;
    h_strategy = strategy;
    h_seed = seed;
    h_overheads = overheads;
    h_params = params;
  }

let header_json h =
  let open Json in
  Obj
    [
      ("format", String format_name);
      ("version", Int h.h_version);
      ("app", String h.h_app);
      ("dims", List (List.map (fun d -> Int d) (Array.to_list h.h_dims)));
      ("strategy", String h.h_strategy);
      ("seed", Int h.h_seed);
      ( "overheads",
        Obj
          [
            ("send_us", Float h.h_overheads.Analysis.send_overhead);
            ("recv_us", Float h.h_overheads.Analysis.recv_overhead);
            ("local_us", Float h.h_overheads.Analysis.local_overhead);
          ] );
      ("params", Obj h.h_params);
    ]

let ( let* ) = Result.bind

let field ~what ~key conv j =
  match Option.bind (Json.member key j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or malformed %S field" what key)

let parse_header line =
  let* j = Result.map_error (fun e -> "header: " ^ e) (Json.of_string line) in
  let* fmt = field ~what:"header" ~key:"format" Json.to_str j in
  if fmt = "diva-dsm-trace" then
    Error
      "format \"diva-dsm-trace\" is the retired DSM record format; \
       re-record the run with --record, which now writes a \
       diva-event-trace"
  else if fmt <> format_name then
    Error
      (Printf.sprintf "not an event trace (format %S, expected %S)" fmt
         format_name)
  else
    let* version = field ~what:"header" ~key:"version" Json.to_int j in
    if version < 1 || version > current_version then
      Error
        (Printf.sprintf
           "unsupported trace version %d (this build supports 1..%d)" version
           current_version)
    else
      let* app = field ~what:"header" ~key:"app" Json.to_str j in
      let* dims =
        match Json.member "dims" j with
        | Some (Json.List ds) ->
            let ints = List.filter_map Json.to_int ds in
            if List.length ints = List.length ds && ints <> [] then
              Ok (Array.of_list ints)
            else Error "header: malformed \"dims\""
        | _ -> Error "header: missing \"dims\""
      in
      let* strategy = field ~what:"header" ~key:"strategy" Json.to_str j in
      let* seed = field ~what:"header" ~key:"seed" Json.to_int j in
      let* overheads =
        match Json.member "overheads" j with
        | Some o ->
            let* send_overhead =
              field ~what:"header overheads" ~key:"send_us" Json.to_float o
            in
            let* recv_overhead =
              field ~what:"header overheads" ~key:"recv_us" Json.to_float o
            in
            let* local_overhead =
              field ~what:"header overheads" ~key:"local_us" Json.to_float o
            in
            Ok { Analysis.send_overhead; recv_overhead; local_overhead }
        | None -> Error "header: missing \"overheads\""
      in
      let params =
        match Json.member "params" j with Some (Json.Obj kvs) -> kvs | _ -> []
      in
      Ok
        {
          h_version = version;
          h_app = app;
          h_dims = dims;
          h_strategy = strategy;
          h_seed = seed;
          h_overheads = overheads;
          h_params = params;
        }

(* A [--record] file carries only the DSM events; the mark lives in the
   free-form params so the header layout stays the same. *)
let dsm_only_param = ("events", Json.String "dsm-only")

let mark_dsm_only h = { h with h_params = h.h_params @ [ dsm_only_param ] }

let is_dsm_only h =
  List.exists (fun kv -> kv = dsm_only_param) h.h_params

let write_header oc h =
  let b = Buffer.create 256 in
  Json.to_buffer b (header_json h);
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

let file_sink oc h =
  write_header oc h;
  Trace.stream (Trace.write_event oc)

(* ------------------------------------------------------------------ *)
(* Event decoding                                                       *)
(* ------------------------------------------------------------------ *)

let event_of_json j =
  let what = "event" in
  let int k = field ~what ~key:k Json.to_int j in
  let flt k = field ~what ~key:k Json.to_float j in
  let str k = field ~what ~key:k Json.to_str j in
  let boo k = field ~what ~key:k Json.to_bool j in
  let* tag = str "e" in
  match tag with
  | "send" ->
      let* ts = flt "ts" in
      let* id = int "id" in
      let* parent = int "par" in
      let* txn = int "txn" in
      let* inject = flt "inj" in
      let* level = int "lv" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* size = int "sz" in
      let* local = boo "loc" in
      Ok
        (Trace.Msg_send
           { ts; id; parent; txn; inject; level; src; dst; size; local })
  | "dlv" ->
      let* ts = flt "ts" in
      let* id = int "id" in
      let* txn = int "txn" in
      let* handled = flt "h" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* size = int "sz" in
      Ok (Trace.Msg_deliver { ts; id; txn; handled; src; dst; size })
  | "xfer" ->
      let* start = flt "s" in
      let* finish = flt "f" in
      let* link = int "lk" in
      let* msg = int "msg" in
      let* txn = int "txn" in
      let* level = int "lv" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* size = int "sz" in
      Ok
        (Trace.Link_xfer
           { start; finish; link; msg; txn; level; src; dst; size })
  | "var" ->
      let* ts = flt "ts" in
      let* var = int "v" in
      let* var_name = str "name" in
      let* size = int "sz" in
      let* owner = int "own" in
      Ok (Trace.Var_decl { ts; var; var_name; size; owner })
  | "dsm" ->
      let* ts = flt "ts" in
      let* dur = flt "dur" in
      let* node = int "n" in
      let* var = int "v" in
      let* var_name = str "name" in
      let* code = str "op" in
      let* op =
        match Trace.op_of_code code with
        | Some op -> Ok op
        | None -> Error (Printf.sprintf "event: unknown op code %S" code)
      in
      let* size = int "sz" in
      let* hit = boo "hit" in
      let* txn = int "txn" in
      let* completed_by = int "cb" in
      Ok
        (Trace.Dsm_access
           { ts; dur; node; var; var_name; op; size; hit; txn; completed_by })
  | "cadd" ->
      let* ts = flt "ts" in
      let* node = int "n" in
      let* var = int "v" in
      let* var_name = str "name" in
      let* tnode = int "tn" in
      let* level = int "lv" in
      Ok (Trace.Copy_add { ts; node; var; var_name; tnode; level })
  | "cdrop" ->
      let* ts = flt "ts" in
      let* node = int "n" in
      let* var = int "v" in
      let* var_name = str "name" in
      let* tnode = int "tn" in
      let* level = int "lv" in
      let* code = str "why" in
      let* reason =
        match Trace.drop_of_code code with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "event: unknown drop reason %S" code)
      in
      Ok (Trace.Copy_drop { ts; node; var; var_name; tnode; level; reason })
  | "remap" ->
      let* ts = flt "ts" in
      let* var = int "v" in
      let* var_name = str "name" in
      let* tnode = int "tn" in
      let* level = int "lv" in
      let* from_node = int "from" in
      let* to_node = int "to" in
      Ok (Trace.Remap { ts; var; var_name; tnode; level; from_node; to_node })
  | "lost" ->
      let* ts = flt "ts" in
      let* msg = int "msg" in
      let* txn = int "txn" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* size = int "sz" in
      let* code = str "why" in
      let* reason =
        match Trace.loss_of_code code with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "event: unknown loss reason %S" code)
      in
      Ok (Trace.Msg_lost { ts; msg; txn; src; dst; size; reason })
  | "retry" ->
      let* ts = flt "ts" in
      let* msg = int "msg" in
      let* txn = int "txn" in
      let* src = int "src" in
      let* dst = int "dst" in
      let* size = int "sz" in
      let* attempt = int "att" in
      Ok (Trace.Msg_retry { ts; msg; txn; src; dst; size; attempt })
  | other -> Error (Printf.sprintf "event: unknown tag %S" other)

let event_of_line ~lineno line =
  let* j =
    Result.map_error
      (fun e -> Printf.sprintf "line %d: %s" lineno e)
      (Json.of_string line)
  in
  Result.map_error
    (fun e -> Printf.sprintf "line %d: %s" lineno e)
    (event_of_json j)

(* ------------------------------------------------------------------ *)
(* File reading (line at a time — memory stays bounded)                 *)
(* ------------------------------------------------------------------ *)

let with_lines path f =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no such file" path)
  else
    match
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)
    with
    | r -> Result.map_error (fun e -> Printf.sprintf "%s: %s" path e) r
    | exception Sys_error e -> Error e

(* First non-blank line is the header; every later non-blank line is one
   event, applied in order. *)
let iter_file path ~f =
  with_lines path (fun ic ->
      let rec next_line lineno =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.trim line = "" -> next_line (lineno + 1)
        | line -> Some (line, lineno)
      in
      match next_line 1 with
      | None -> Error "empty trace file"
      | Some (header_line, hline) ->
          let* header = parse_header header_line in
          let rec go lineno =
            match next_line lineno with
            | None -> Ok header
            | Some (line, lineno) ->
                let* e = event_of_line ~lineno line in
                f e;
                go (lineno + 1)
          in
          go (hline + 1))

let probe path =
  with_lines path (fun ic ->
      match input_line ic with
      | exception End_of_file -> Error "empty trace file"
      | line -> Result.map (fun (_ : header) -> ()) (parse_header line))

(* Full offline post-mortem in a single pass over the file: the analyzer
   retains each link crossing as four scalars and bins them into windows
   at [finalize], once the end time is known. Returns the header, the
   summary — bit-identical to [Analysis.summarize] over the same events —
   and the peak message-record residency. *)
let analyze_file ?top_k ?num_windows ?ring path =
  let* header =
    with_lines path (fun ic ->
        match input_line ic with
        | exception End_of_file -> Error "empty trace file"
        | line -> parse_header line)
  in
  let* () =
    if is_dsm_only header then
      Error
        (Printf.sprintf
           "%s: the file carries DSM events only (a --record file) and \
            cannot be analyzed offline; record the full stream with \
            --events, or re-simulate it with analyze --replay"
           path)
    else Ok ()
  in
  let t = create ?top_k ?num_windows ?ring header.h_overheads in
  let* _ = iter_file path ~f:(feed t) in
  Ok (header, finalize t, t.peak)


(* ------------------------------------------------------------------ *)
(* Multi-run merge / compaction                                         *)
(* ------------------------------------------------------------------ *)

let merged_format_name = "diva-event-trace-merged"
let merged_version = 1

type merge_stats = { ms_runs : int; ms_events : int; ms_dropped : int }

(* One scan of a run: its event count plus its quiescence point — the
   issue time of the first DSM access. Everything before quiescence is
   setup chatter (initial copy placement, warm-up sends) that multi-run
   analysis wants gone; [Var_decl] events survive compaction regardless
   because replay and analysis need the declarations. A run with no DSM
   accesses compacts to itself (cut at 0). *)
let scan_run path =
  let n = ref 0 and q = ref Float.infinity in
  let* _ =
    iter_file path ~f:(fun e ->
        incr n;
        match e with
        | Trace.Dsm_access { ts; _ } when ts < !q -> q := ts
        | _ -> ())
  in
  Ok (!n, if !q = Float.infinity then 0.0 else !q)

let keep_event ~quiescence e =
  match e with
  | Trace.Var_decl _ -> true
  | e -> Trace.timestamp e >= quiescence

(* One open input being merged: header already consumed, [mu_cur] holds
   the next surviving event. Only each cursor's head competes, so within
   a file the original emission order is preserved exactly; across files
   the merge is a stable k-way interleave on head timestamps with the
   run index as tie-break — the output is deterministic. *)
type cursor = {
  mu_run : int;
  mu_path : string;
  mu_ic : in_channel;
  mutable mu_lineno : int;
  mutable mu_cur : Trace.event option;
  mu_quiescence : float;
}

let cursor_advance c =
  let rec go () =
    match input_line c.mu_ic with
    | exception End_of_file ->
        c.mu_cur <- None;
        Ok ()
    | line ->
        c.mu_lineno <- c.mu_lineno + 1;
        if String.trim line = "" then go ()
        else
          let* e =
            Result.map_error
              (fun e -> Printf.sprintf "%s: %s" c.mu_path e)
              (event_of_line ~lineno:c.mu_lineno line)
          in
          if keep_event ~quiescence:c.mu_quiescence e then begin
            c.mu_cur <- Some e;
            Ok ()
          end
          else go ()
  in
  go ()

(* Open one input positioned just past its header line. *)
let open_cursor ~run ~quiescence path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let rec skip lineno =
        match input_line ic with
        | exception End_of_file -> lineno
        | line when String.trim line = "" -> skip (lineno + 1)
        | _ -> lineno + 1
      in
      let lineno = skip 0 in
      Ok
        {
          mu_run = run;
          mu_path = path;
          mu_ic = ic;
          mu_lineno = lineno;
          mu_cur = None;
          mu_quiescence = quiescence;
        }

let write_json_line oc j =
  let b = Buffer.create 256 in
  Json.to_buffer b j;
  Buffer.add_char b '\n';
  Buffer.output_buffer oc b

let merge_files ?(compact = false) ~inputs ~output () =
  if inputs = [] then Error "trace merge: no input files"
  else
    (* Pass 1: validate every header; when compacting, also scan each run
       for its size and quiescence cut. *)
    let* runs =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* h =
            with_lines path (fun ic ->
                match input_line ic with
                | exception End_of_file -> Error "empty trace file"
                | line -> parse_header line)
          in
          let* total, quiescence =
            if compact then scan_run path else Ok (0, 0.0)
          in
          Ok ((path, h, total, quiescence) :: acc))
        (Ok []) inputs
    in
    let runs = List.rev runs in
    match
      let oc = open_out output in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let open Json in
          (* Merged header: the format marker plus every input's own
             header and its quiescence cut, so downstream tools can tell
             what a compacted merge dropped. *)
          write_json_line oc
            (Obj
               [
                 ("format", String merged_format_name);
                 ("version", Int merged_version);
                 ("compact", Bool compact);
                 ( "runs",
                   List
                     (List.map
                        (fun (path, h, _, q) ->
                          Obj
                            [
                              ("path", String (Filename.basename path));
                              ("header", header_json h);
                              ("quiescence_us", Float q);
                            ])
                        runs) );
               ]);
          let* cursors =
            List.fold_left
              (fun acc (run, (path, _, _, quiescence)) ->
                let* acc = acc in
                let* c = open_cursor ~run ~quiescence path in
                Ok (c :: acc))
              (Ok [])
              (List.mapi (fun i r -> (i, r)) runs)
            |> Result.map List.rev
          in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun c -> try close_in c.mu_ic with Sys_error _ -> ())
                cursors)
            (fun () ->
              let* () =
                List.fold_left
                  (fun acc c ->
                    let* () = acc in
                    cursor_advance c)
                  (Ok ()) cursors
              in
              let written = ref 0 in
              (* Earliest head timestamp wins; ties keep the lower run
                 index (the fold visits cursors in run order and only a
                 strictly smaller timestamp displaces the champion). *)
              let rec pump () =
                let best =
                  List.fold_left
                    (fun best c ->
                      match (c.mu_cur, best) with
                      | None, _ -> best
                      | Some _, None -> Some c
                      | Some e, Some b -> (
                          match b.mu_cur with
                          | Some be
                            when Trace.timestamp e < Trace.timestamp be ->
                              Some c
                          | _ -> best))
                    None cursors
                in
                match best with
                | None -> Ok ()
                | Some c -> (
                    match c.mu_cur with
                    | None -> Ok ()
                    | Some e ->
                        let fields =
                          match Trace.event_to_json e with
                          | Obj kvs -> kvs
                          | j -> [ ("event", j) ]
                        in
                        write_json_line oc
                          (Obj (("run", Int c.mu_run) :: fields));
                        incr written;
                        let* () = cursor_advance c in
                        pump ())
              in
              let* () = pump () in
              let total_in =
                if compact then
                  List.fold_left (fun acc (_, _, n, _) -> acc + n) 0 runs
                else !written
              in
              Ok
                {
                  ms_runs = List.length runs;
                  ms_events = !written;
                  ms_dropped = max 0 (total_in - !written);
                }))
    with
    | r -> r
    | exception Sys_error e -> Error e
