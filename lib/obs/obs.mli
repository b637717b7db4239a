(** Process-wide observability: named counters, high-water gauges, and
    duration histograms, collected into a registry that can be
    snapshotted and rendered as JSON.

    The layer sits directly above the leaf library [hoiho_util] (its
    {!Hoiho_util.Json} renders snapshots), so every library above that
    can depend on it without cycles.

    Thread-safety contract (see DESIGN.md §7): counters and gauges are
    [Atomic]-based and safe to bump from any domain of the work pool
    without locks; histograms take a per-histogram mutex on [observe],
    held for one bucket increment. Call rates range from once per
    pipeline stage to once per served request ([net.request_ms]) or
    per [apply] batch. Metric *registration* ([counter]/[gauge]/[histogram]) is
    guarded by a registry mutex and idempotent: the same name always
    yields the same underlying cell, so modules may register at
    initialization or lazily from worker domains. *)

type counter
type gauge
type histogram

(** {1 Counters} — monotonic event counts, lock-free. *)

val counter : string -> counter
(** Register (or look up) the counter named [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val set_counter : counter -> int -> unit
(** Overwrite a counter's value: the reset hook for a layer that owns
    its counters (e.g. {!Hoiho_obs.Trace.clear} zeroes the span counters). *)

(** {1 Gauges} — high-water marks: [observe_gauge] keeps the maximum
    value ever reported, lock-free via compare-and-set. *)

val gauge : string -> gauge
val observe_gauge : gauge -> int -> unit

val set_gauge : gauge -> int -> unit
(** Overwrite the gauge with a current value (not a high-water mark) —
    for level-style gauges such as the health state or calibration
    drift, where the latest reading is the truth. *)

val gauge_value : gauge -> int

(** {1 Histograms} — durations in milliseconds, each kept in one
    fixed-layout {!Histo}: 16 linear sub-buckets per power of two over
    [\[2⁻¹⁰, 2²⁰)] ms plus an edge at each decile, about 4 KB whatever
    the number of samples. [n], [sum] and [max] are exact ([sum] to
    10⁻⁶ ms per sample); p50/p95/p99 are never below the exact
    nearest-rank value and at most 1/16 above it inside the grid. *)

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** Record one duration (milliseconds): one bucket increment, constant
    memory. *)

val now_ms : unit -> float
(** Monotonic milliseconds ([CLOCK_MONOTONIC]; arbitrary epoch — use
    differences only). Immune to wall-clock steps, so histogram
    durations are never negative. *)

val epoch_ms : unit -> float
(** Wall-clock epoch milliseconds ([gettimeofday]) — only for values
    that leave the process as absolute times (JSON anchors). *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and records its wall-clock duration in [h],
    including when [f] raises. *)

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;  (** sorted by name *)
  histograms : (string * Histo.stats) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot
(** A consistent-enough copy of every registered metric. Counters are
    read individually (no global pause), which is exact whenever the
    process is quiescent — the intended use: snapshot after a run. *)

val find_counter : snapshot -> string -> int option
val find_histogram : snapshot -> string -> Histo.stats option

val reset : unit -> unit
(** Zero every registered metric (counters, gauges and histogram
    buckets). Registration survives; cells are reused. *)

val to_json : snapshot -> Hoiho_util.Json.t
(** The snapshot as a JSON object:
    [{"counters": {..}, "gauges": {..}, "histograms": {"name":
    {"count": n, "p50_ms": x, "p95_ms": x, "p99_ms": x, "max_ms": x,
    "total_ms": x}}}]. Keys are sorted, so equal snapshots print
    equal strings ({!Hoiho_util.Json.to_string}). *)

val to_openmetrics : snapshot -> string
(** The snapshot in OpenMetrics/Prometheus text exposition: counters
    as [hoiho_<name>_total], gauges verbatim, histograms as summaries
    with p50/p95/p99 quantile samples, terminated by [# EOF]. Names are
    sanitized (non-alphanumeric bytes become ['_']) and prefixed with
    [hoiho_]; keys are sorted, so equal snapshots render equal
    strings. *)

(** {1 Periodic exposition} *)

val write_channel_atomic : string -> (out_channel -> 'a) -> 'a
(** [write_channel_atomic path write] runs [write] on a channel to a
    pid-unique tmp sibling ([path.tmp.PID]) and renames it over
    [path]: readers see the old file or the new one, never a torn
    write, and two processes writing one path cannot tear each other's
    tmp file. If [write] raises, the tmp file is closed and removed,
    [path] is left untouched and the exception propagates. Corpora
    ([Io.save]) stream through it. *)

val write_file_atomic : string -> string -> unit
(** [write_channel_atomic] of one string: model snapshots, metrics,
    traces and calibration reports. *)

val write_openmetrics : string -> unit
(** Write {!to_openmetrics} of a fresh {!snapshot} to a file,
    atomically (pid-unique tmp + rename). The one writer both the
    periodic emitter and end-of-run callers use, so
    [--openmetrics] with and without [--openmetrics-interval]
    produce the same final file the same way. *)

type emitter

val start_emitter : ?period_s:float -> path:string -> unit -> emitter
(** Spawn a domain that rewrites [path] (atomically: tmp + rename)
    with {!to_openmetrics} of a fresh {!snapshot} every [period_s]
    seconds (default 5.0), so long runs can be scraped from the
    file. *)

val stop_emitter : emitter -> unit
(** Stop and join the emitter, then write one final snapshot — the
    file always ends with the run's complete metrics. *)
