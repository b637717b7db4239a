(** Ground-truth calibration of per-answer confidence scores.

    The confidence subsystem ({!Hoiho.Confidence}) promises that its
    scores mean something: a batch of answers scored 0.9 should be
    right about nine times in ten. This module measures that promise
    against generator ground truth, replaying the §6 protocol with the
    score attached: every ground-truth hostname becomes a
    (confidence, correct) sample — {b including the unanswered ones},
    which enter at (0.0, false) so abstention is scored as the
    zero-confidence prediction it is — and the samples are bucketed by
    confidence decile.

    Two scalar summaries:
    - {b Brier score}: mean squared gap between confidence and outcome
      (0 is perfect, 0.25 is what a constant 0.5 scores on a coin flip).
    - {b ECE} (expected calibration error): the bucket-weighted mean of
      |accuracy − mean confidence| — how far the reliability diagram
      sits from the diagonal.

    Everything here is deterministic: samples are bucketed by exact
    float comparison on scores that are themselves byte-identical
    across jobs settings, so a calibration report is reproducible
    bit-for-bit from (preset, seed). *)

type sample = { confidence : float; correct : bool }

type bucket = {
  lo : float;  (** inclusive lower bound of the decile *)
  hi : float;  (** exclusive upper bound (inclusive for the last) *)
  n : int;
  mean_confidence : float;  (** 0 when the bucket is empty *)
  accuracy : float;  (** fraction correct; 0 when empty *)
}

type report = {
  total : int;  (** all samples, unanswered ground truth included *)
  answered : int;  (** samples where an answer was produced *)
  brier : float;
  ece : float;
  buckets : bucket list;  (** exactly 10, in decile order *)
}

val of_samples : ?answered:int -> sample list -> report
(** Bucket and summarize. [answered] defaults to the sample count —
    pass the real count when the list mixes answers and abstentions. *)

val of_pipeline :
  Hoiho.Pipeline.t -> Hoiho_netsim.Truth.t -> suffixes:string list -> report
(** The end-to-end harness: every ground-truth hostname of [suffixes]
    is scored with {!Hoiho.Pipeline.geolocate_conf}; answers become
    (confidence, within-40km) samples, abstentions (0.0, false). *)

val monotone : ?tolerance:float -> report -> bool
(** Decile accuracy is non-decreasing over the non-empty buckets, up to
    [tolerance] (default 0.05): higher-confidence buckets may not be
    meaningfully {e less} accurate than lower ones. The headline gate,
    asserted in [dune runtest] and by [bench/main.exe -e perf]. *)

val to_json : report -> Hoiho_util.Json.t
(** Stable field order; floats print via the util printer's [%.17g]. *)

val render_text : report -> string
(** The reliability table as humans read it: one line per decile, then
    the Brier/ECE/monotonicity summary line. *)
