(** Sliding-window aggregates: a ring of fixed-duration {!Histo} slots
    with deterministic, clock-injected rotation.

    Unlike {!Obs.histogram} (cumulative since process start), a window
    answers "what happened over the last N seconds". Every operation
    takes the current time as [~now_ms], so tests drive a synthetic
    clock; the daemon passes {!Obs.now_ms}.

    Rotation contract (DESIGN.md §14): time is quantized into epochs
    [floor (now_ms / bucket_ms)], and slot [epoch mod nbuckets] holds
    one epoch's histogram. Writing into a slot whose stored epoch
    differs clears it first, so an idle gap needs no sweeper: stale
    epochs fall outside the span filter at read time.

    One mutex guards the ring. A read merges the in-window slots, so
    it is a pure function of the recorded (value, epoch) multiset,
    whatever the arrival order or jobs count. Memory is
    [nbuckets + 1] histograms, whatever the traffic. *)

type t

val create : bucket_ms:float -> nbuckets:int -> unit -> t
(** A window spanning [nbuckets * bucket_ms] milliseconds. [bucket_ms]
    must be positive and [nbuckets] at least 1. *)

val record : t -> now_ms:float -> float -> unit
(** Record one sample at [now_ms]. For event-count windows (errors,
    sheds) record any value and read {!stats}[.n]. *)

val stats : t -> now_ms:float -> Histo.stats
(** {!Histo.stats} of every sample whose epoch lies within the span
    ending at [now_ms]; all zero when empty. A rate is [n] over
    {!span_ms}. *)

val deciles : t -> now_ms:float -> float array
(** {!Histo.deciles} of the same samples: the served confidence
    profile the drift monitor compares. *)

val span_ms : t -> float
val bucket_ms : t -> float
val nbuckets : t -> int
