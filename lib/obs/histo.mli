(** One fixed-layout histogram, the only sample store in [Hoiho_obs]:
    {!Obs} keeps one per registered histogram and every {!Window} slot
    is one, so memory and read cost per histogram are constant.

    Layout: a bucket for values [<= 0] (and NaN), an underflow bucket
    (0, 2⁻¹⁰), 16 linear sub-buckets per power of two over
    [\[2⁻¹⁰, 2²⁰)] (milliseconds, for durations), an overflow bucket,
    and an extra edge at each decile boundary, the smallest double
    {!decile} maps to k: 491 buckets, about 4 KB.

    [n] and [max] are exact; [sum] is an integer count of 10⁻⁶ units,
    so it does not depend on recording order. Merging is a pure
    function of the recorded multiset, and results are identical at
    every [jobs] setting. Not synchronized: callers hold a mutex. *)

type t

val create : unit -> t
val record : t -> float -> unit

val merge_into : into:t -> t -> unit
(** Add every count of the second histogram to [into]. *)

val clear : t -> unit

type stats = {
  n : int;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
  sum : float;  (** within 10⁻⁶ per sample of the exact sum *)
}

val stats : t -> stats
(** Percentiles are nearest-rank, reported as the upper edge of the
    bucket that holds the rank, clamped to [max]: never below the exact
    value, at most 1/16 above it inside the grid, at most 2⁻¹⁰ for an
    underflow value, and exact on a zero. An empty histogram yields
    all-zero stats. *)

val decile : float -> int
(** The one decile rule: [floor (c · 10)] clamped into 0..9, so
    [\[k/10, (k+1)/10)] is decile k and 1.0 is decile 9. It is not a
    comparison against k/10: [Float.pred 0.9] is decile 9, because the
    product rounds to 9.0. Calibration buckets, a model's expected
    profile and the drift monitor's served deciles all use it. *)

val deciles : t -> float array
(** Decile masses of the recorded values, summing to 1 (all zero when
    empty). Exact, since every decile edge is a bucket edge. *)
