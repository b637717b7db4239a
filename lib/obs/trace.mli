(** Span-based tracing (DESIGN.md §10): hierarchical begin/end spans
    with key/value attributes, collected per call ({!collect}) and
    exported as Chrome trace-event JSON (loadable in Perfetto /
    chrome://tracing) or as an indented decision-trace text.

    Overhead contract: while nothing records (no {!collect} running,
    the process-wide switch off), {!with_span}, {!add_attr} and
    {!enabled} cost one load of an [Atomic.t] — no allocation, no
    locking, no clock read. Recording, a span takes one
    monotonic-clock read at begin and one atomic slot claim and one
    compare-and-set push at end.

    Nesting: each domain keeps its own stack of live spans
    ({!Domain.DLS}), so synchronous callees nest under their caller
    automatically. Work fanned out over {!Pool} may run on other
    domains whose stacks are empty — the pool {!capture}s the caller's
    context (its innermost span and its collector) and installs it
    ({!with_ctx}) around each queued job, so spans created inside a
    job nest under the span the fan-out started from and land in the
    caller's collector, keeping the span tree identical at every
    [HOIHO_JOBS] setting.

    Determinism: for a fixed-seed run, the canonical forest
    ({!canonical}) is byte-identical across jobs settings as long as
    no span was dropped. Spans in the ["sched"] category (pool
    scheduling) are excluded from the canonical form, mirroring the
    pool.* counter exemption of §7. [trace.spans_recorded] and
    [trace.spans_dropped] count the spans every collector keeps or
    drops, and never decrease. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;  (** "work" (default) or "sched" (scheduling-dependent) *)
  t_start_ns : int64;  (** monotonic; same epoch as [t_end_ns] only *)
  t_end_ns : int64;
  attrs : (string * string) list;  (** in attachment order *)
  domain : int;  (** numeric id of the domain that ran the span *)
}

(** {1 Recording} *)

val collect : (unit -> 'a) -> 'a * span list * int
(** [collect f] is [f ()], the spans it opened (sorted by (start
    time, id)) and how many it dropped. Spans opened on the
    calling domain and in every {!Pool} job [f] fans out go to a
    collector of this call's own, whatever else records beside it.
    The collector keeps the first 65536 spans to complete, the bound
    that caps its memory, and allocates as they arrive. If [f]
    raises, the spans are lost. *)

val enabled : unit -> bool
(** Whether anything records anywhere: a {!collect} or the
    process-wide switch. *)

type parent =
  | Stack  (** the innermost live span of the calling domain, if any *)
  | Root  (** force a root span *)
  | Span of int  (** explicit parent id, see {!fanout_parent} *)

val with_span :
  ?cat:string ->
  ?parent:parent ->
  ?attrs:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f] inside a span named [name]. The span is
    recorded when [f] returns or raises, into the collector it was
    opened under. When nothing records on the calling domain this is
    exactly [f ()]. *)

val add_attr : string -> string -> unit
(** Attach a key/value pair to the calling domain's innermost live
    span. No-op when nothing records there or outside any span. *)

type ctx
(** A captured span context: the innermost live span and the
    {!collect} collector at capture time. *)

val capture : unit -> ctx
(** Capture the calling domain's current span context, to be installed
    around work executed later and/or elsewhere ({!with_ctx}). *)

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with [ctx] as the ambient span context:
    spans [f] opens with [parent:Stack] and an empty local stack nest
    under the captured span and go to the captured collector. The
    executing domain's own live spans and collector are masked for the
    duration, so a waiting caller's current work never becomes the
    accidental parent (or collector) of a job it helps run, such as
    one of a fan-out opened on another domain. Used by {!Pool} around
    every job. *)

val sampled : string -> bool
(** Deterministic 1-in-64 subject sampling for very hot call sites
    (e.g. {!Hoiho_rx.Engine.exec}): keyed on the subject's bytes, so
    the sampled set is a function of the inputs, never of
    scheduling. *)

(** {1 Export} *)

val canonical : ?include_sched:bool -> span list -> string
(** A timestamp-free canonical rendering of the span forest, rebuilt
    from the parent links: every node is [name {k=v ...}] and siblings
    are sorted by their full rendered subtree, so two runs with the
    same logical structure produce byte-identical strings regardless
    of domain scheduling. Orphans (parent dropped or never recorded)
    surface as roots. [include_sched] defaults to [false]:
    ["sched"]-category spans are pruned (with their subtrees
    reattached to the nearest kept ancestor — scheduling spans never
    have deterministic children by construction, so in practice this
    only removes leaves); {!render_text} takes it too. *)

val render_text : ?include_sched:bool -> span list -> string
(** Human-readable indented tree with per-span durations — the
    pretty-printed decision trace behind [hoiho explain]. Sibling
    order is span start order. *)

val to_chrome_json : ?epoch_ms:float -> ?dropped:int -> span list -> string
(** Chrome trace-event JSON (the ["traceEvents"] array-of-["ph":"X"]
    form), timestamps in microseconds relative to the earliest span.
    [epoch_ms] (default: wall clock now) is recorded once under
    ["otherData"] so consumers can anchor the monotonic timeline to
    wall time, as is [dropped], the count {!collect} returned with
    [spans] (default: the process-wide collector's {!dropped}). Printed by {!Hoiho_util.Json.to_string},
    so {!Hoiho_util.Json.parse} reads it back. *)

(** {1 The process-wide switch}

    One collector for the whole process, recording every span opened
    outside a {!collect} while switched on (the first 65536 since the
    last {!clear}). Nothing in the library or the CLI uses it: it
    remains for the benchmark's recorders (bench/perf/spans.ml), which
    switch it on around their own spans and pass [?parent] across
    domains themselves. *)

val set_enabled : bool -> unit
val clear : unit -> unit
val spans : unit -> span list
val dropped : unit -> int

val fanout_parent : unit -> parent
(** The parent to pass to spans created on other domains on this
    span's behalf: [Span id] of the calling domain's innermost live
    span when inside one, [Root] otherwise. *)
