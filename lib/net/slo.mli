(** SLO declaration files for the serving daemon's health monitor
    ([hoiho serve --slo FILE], DESIGN.md §14): strict JSON in,
    {!Hoiho_obs.Health.objective}s out.

    The schema, all fields optional except [objectives]:

    {v
    {
      "window_s": 60,          // sliding-window span, default 60
      "buckets": 12,           // ring buckets across the span, default 12, at most 120
      "objectives": [
        {"metric": "latency_p99_ms", "max": 250},
        {"metric": "error_rate",     "max": 0.05, "fail_ratio": 3.0}
      ]
    }
    v}

    [metric] must name a measurement the monitor produces
    ({!metrics}); [max] must be positive; [fail_ratio] (default 2.0)
    must exceed 1. Parsing is strict and total: anything malformed is
    an [Error] naming the offending path, never an exception — a bad
    SLO file fails daemon startup, not the first health probe. *)

type t = {
  objectives : Hoiho_obs.Health.objective list;
  bucket_ms : float;  (** window_s × 1000 / buckets *)
  nbuckets : int;
}

val default : t
(** What the daemon runs without [--slo], and where {!parse} takes an
    absent [window_s] or [buckets] from: {!Hoiho_obs.Health.default_objectives}
    over a 60 s window of 12 buckets. *)

val max_buckets : int
(** 120: each bucket is one {!Hoiho_obs.Histo} (about 4 KB) in each of
    the monitor's four windows, so 120 buckets cost about 2 MB; on the
    default 60 s window they are 0.5 s slots. More is an [Error] naming
    the limit. *)

val max_file_bytes : int
(** 65536: {!load} rejects a larger file, naming the limit, before
    reading it. *)

val parse : string -> (t, string) result

val load : string -> (t, string) result
(** [parse] of the file contents; unreadable or oversized files are
    [Error]. *)
