(** Bounded-memory streaming analysis and the on-disk JSONL trace format.

    The batch pipeline ({!Spans.build} + {!Analysis}) holds every message
    record of a run in memory, which caps how big a run can be dissected
    after the fact. This engine folds the same event stream incrementally:
    traffic profiles are event-self-contained sums, and each transaction
    is decomposed — completing chain and side branches — the moment its
    completion event passes, after which its message records are freed.
    Peak residency is O(concurrent transactions x protocol fan-out),
    independent of run length, and {!peak_msgs} exposes the high-water
    mark so harnesses can assert boundedness.

    The resulting {!Analysis.summary} is bit-identical (floats included)
    to [Analysis.summarize] over the same events: both sides fold
    transactions in completion order and traffic in emission order, take
    side-branch snapshots at the completion event, and the window
    clipping of {!Analysis.decompose_chain} makes post-completion
    retransmission crossings invisible to cost attribution (tested).

    The second half of the module is a versioned JSONL trace format —
    header line plus one compact JSON event per line — written by a
    {!Trace.stream} sink during the run ({!file_sink}) and re-analyzed
    later by {!analyze_file} without re-simulating. *)

type t

val create :
  ?top_k:int -> ?num_windows:int -> ?ring:int -> Analysis.overheads -> t
(** [ring] (default 1024) bounds the set of recently-completed transaction
    ids remembered to keep stray post-completion sends from repopulating
    the record table; eviction can only delay freeing such a record until
    {!finalize}, never change computed values. *)

val feed : t -> Trace.event -> unit

val sink : t -> Trace.sink
(** [Trace.stream (feed t)]: attach the analyzer directly to a run. *)

val events_seen : t -> int
val num_msgs : t -> int

val live_msgs : t -> int
(** Message records currently retained (messages of not-yet-completed
    transactions). *)

val peak_msgs : t -> int
(** High-water mark of {!live_msgs} — the analyzer's peak residency. *)

val end_time : t -> float
(** {!Analysis.end_time_events} of the stream so far — the time basis for
    the window boundaries placed at {!finalize}. *)

val num_windows : t -> int

val finalize : ?windows:Analysis.window list -> t -> Analysis.summary
(** Non-destructive. When [windows] is omitted, the windowed link series
    is folded here from the crossings retained during the pass (four
    scalars per crossing; none retained when [num_windows <= 0]) — the
    same operands in the same order a second {!Analysis.Windows_fold}
    pass over the source would see, so the rows are bit-identical.
    Passing [windows] overrides that with externally computed rows. *)

val analyze_events :
  ?top_k:int ->
  ?num_windows:int ->
  ?ring:int ->
  Analysis.overheads ->
  Trace.event list ->
  Analysis.summary * int
(** One pass over an in-memory event list; returns the summary and the
    peak message-record residency. *)

(** {2 On-disk JSONL trace format}

    Line 1 is a header object [{"format":"diva-event-trace","version":1,
    "app":...,"dims":[...],"strategy":...,"seed":...,"overheads":
    {"send_us":...,"recv_us":...,"local_us":...},"params":{...}}]; every
    later line is one event encoded by {!Trace.event_to_json}. Floats are
    printed round-trip exactly ({!Json}), so offline analysis of a saved
    trace is bit-identical to analyzing the live run. Readers reject
    unknown formats and versions newer than {!current_version}. *)

val format_name : string
val current_version : int

type header = {
  h_version : int;
  h_app : string;
  h_dims : int array;
  h_strategy : string;
  h_seed : int;
  h_overheads : Analysis.overheads;
      (** machine overheads of the recorded run, so offline analysis needs
          no access to the simulator's machine model *)
  h_params : (string * Json.t) list;  (** free-form run parameters *)
}

val make_header :
  ?params:(string * Json.t) list ->
  app:string ->
  dims:int array ->
  strategy:string ->
  seed:int ->
  overheads:Analysis.overheads ->
  unit ->
  header

val header_json : header -> Json.t
val parse_header : string -> (header, string) result

val mark_dsm_only : header -> header
(** Tag the header as a DSM-only record: the file holds just the
    [Var_decl] and [Dsm_access] events ([divasim --record]). The tag is
    the ["events": "dsm-only"] entry of the free-form params. *)

val is_dsm_only : header -> bool

val write_header : out_channel -> header -> unit

val file_sink : out_channel -> header -> Trace.sink
(** Write the header now and every emitted event as one line, without
    buffering — recording costs O(1) memory. The caller closes the
    channel after the run. *)

val event_of_json : Json.t -> (Trace.event, string) result

val iter_file : string -> f:(Trace.event -> unit) -> (header, string) result
(** Parse the header, then apply [f] to every event line in order,
    reading one line at a time. Blank lines are skipped. *)

val probe : string -> (unit, string) result
(** Validate that the file exists and its first line is a parseable
    header of a supported version — cheap enough for argument parsing. *)

val analyze_file :
  ?top_k:int ->
  ?num_windows:int ->
  ?ring:int ->
  string ->
  (header * Analysis.summary * int, string) result
(** Full offline post-mortem of a saved trace in a single pass: the file
    is read once, and the windowed link series folds at the end from the
    crossings retained along the way. Returns the header, a summary
    bit-identical to analyzing the live run, and the peak message-record
    residency. A DSM-only record ({!is_dsm_only}) is refused: it holds no
    messages to analyze. *)

(** {2 Multi-run merge / compaction}

    [divasim trace merge] combines several single-run trace files into
    one time-ordered stream for fleet-level analysis. The merged file is
    its own format (["diva-event-trace-merged"], version 1): the first
    line is a header carrying every input's original header, and every
    event line gains a leading ["run"] field naming the input it came
    from (0-based, in argument order). *)

val merged_format_name : string
val merged_version : int

type merge_stats = {
  ms_runs : int;  (** number of input files merged *)
  ms_events : int;  (** event lines written to the output *)
  ms_dropped : int;  (** events removed by compaction (0 when off) *)
}

val merge_files :
  ?compact:bool ->
  inputs:string list ->
  output:string ->
  unit ->
  (merge_stats, string) result
(** K-way merge of the input traces into [output], ordered by event
    timestamp with the run index as tie-break; within one run the
    original emission order is preserved exactly, so the output is
    deterministic. With [compact] (default off), each run is first
    scanned for its quiescence point — the issue time of its first DSM
    access — and events before it are dropped as setup noise, except
    {!Trace.Var_decl} declarations, which always survive. Inputs are
    validated (existing file, parseable header) before the output is
    opened. *)
