(** Span-based tracing (DESIGN.md §10): hierarchical begin/end spans
    with key/value attributes, collected into a bounded lock-sharded
    ring buffer and exported as Chrome trace-event JSON (loadable in
    Perfetto / chrome://tracing) or as an indented decision-trace text.

    Overhead contract: tracing disabled costs one load of an
    [Atomic.t] per {!with_span} / {!add_attr} call site — no
    allocation, no locking, no clock read. Enabled, each completed
    span takes one monotonic-clock read at begin and one lock + ring
    store at end.

    Nesting: each domain keeps its own stack of live spans
    ({!Domain.DLS}), so synchronous callees nest under their caller
    automatically. Work fanned out over {!Pool} may run on
    other domains whose stacks are empty — the pool {!capture}s the
    caller's context and installs it ({!with_ctx}) around each queued
    job, so spans created inside a job nest under the span the fan-out
    started from, keeping the span tree identical at every
    [HOIHO_JOBS] setting. The pool is the only mechanism fan-out sites
    use; {!fanout_parent} and [with_span ?parent] serve code that hands
    work to other domains by its own means.

    Determinism: for a fixed-seed run, the canonical forest
    ({!canonical}) is byte-identical across jobs settings as long as
    no span was dropped ([trace.spans_dropped] = 0). Spans in the
    ["sched"] category (pool scheduling) are excluded from the
    canonical form, mirroring the pool.* counter exemption of §7. *)

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

(** {1 Enabling and configuration} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val configure : ?shards:int -> ?capacity:int -> unit -> unit
(** Reallocate the collector: [capacity] total completed-span slots
    (default 65536) spread over [shards] ring buffers (default 8).
    Discards previously collected spans. Only call while disabled. *)

val clear : unit -> unit
(** Drop every collected span and zero the recorded/dropped counters
    ([trace.spans_recorded], [trace.spans_dropped]). *)

(** {1 Recording} *)

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
    recorded when [f] returns or raises. When tracing is disabled this
    is exactly [f ()] after one atomic load. *)

val add_attr : string -> string -> unit
(** Attach a key/value pair to the calling domain's innermost live
    span. No-op when disabled or outside any span. *)

val fanout_parent : unit -> parent
(** The parent to pass to spans created on other domains on this
    span's behalf: [Span id] of the calling domain's innermost live
    span when inside one, [Root] otherwise. *)

type ctx
(** A captured span context: the innermost live span at capture time. *)

val capture : unit -> ctx
(** Capture the calling domain's current span context, to be installed
    around work executed later and/or elsewhere ({!with_ctx}). *)

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with [ctx] as the ambient span parent:
    spans [f] opens with [parent:Stack] and an empty local stack nest
    under the captured span. The executing domain's own live spans are
    masked for the duration, so a helping submitter's current work
    never becomes the accidental parent of another batch's job. Used
    by {!Pool} around every job. *)

val sampled : string -> bool
(** Deterministic 1-in-64 subject sampling for very hot call sites
    (e.g. {!Hoiho_rx.Engine.exec}): keyed on the subject's bytes, so
    the sampled set is a function of the inputs, never of
    scheduling. *)

(** {1 Collection and export} *)

val spans : unit -> span list
(** Completed spans, sorted by (start time, id). *)

val dropped : unit -> int
(** Spans discarded because their shard's ring was full. *)

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

val to_chrome_json : ?epoch_ms:float -> span list -> string
(** Chrome trace-event JSON (the ["traceEvents"] array-of-["ph":"X"]
    form), timestamps in microseconds relative to the earliest span.
    [epoch_ms] (default: wall clock now) is recorded once under
    ["otherData"] so consumers can anchor the monotonic timeline to
    wall time. Printed by {!Hoiho_util.Json.to_string}, so
    {!Hoiho_util.Json.parse} reads it back. *)
