(** Per-answer confidence scoring (DESIGN.md §13).

    A geolocation answer is the convention's *claim*; this module grades
    how much that claim deserves to be believed, in [0,1], from signals
    the pipeline already computes but used to collapse early:

    - convention support: the final NC's TP/FP counts under the suffix
      (a convention proven right 400 times out of 410 outranks one
      proven right 4 times out of 5);
    - RTT-channel agreement: the fraction of TP answers that are also
      consistent under the traceroute channel when the ping channel
      decided (disagreement between the two measurement frameworks is
      the HLOC-style distrust signal);
    - dictionary collision pressure: how many dictionary entries lost
      to the answered city for the same hint (a contested hint is a
      guess ranked by population, not an identification);
    - provenance: a learned-overlay entry brings its own per-hint
      support, a plain dictionary answer does not.

    Determinism contract: the score is pure arithmetic over these
    signals — no wall clock, no randomness, no Hashtbl iteration — so
    it is byte-identical across [jobs] settings, across warm and cold
    caches, and across the in-process and served paths. The per-suffix
    stats ride inside the model snapshot ({!Learned_io} format v2,
    [%.17g] float round-trip), so a served answer carries the exact
    float the training run would have produced. *)

type suffix_stats = {
  tp : int;  (** final-NC true positives (after reselect) *)
  fp : int;
  fn : int;
  unk : int;
  rtt_agreement : float;
      (** fraction of TP hits whose location the traceroute channel
          also admits, among routers measured on both channels; 1.0
          when no router has both (nothing to disagree) *)
}

val no_stats : suffix_stats
(** The neutral element: zero counts, full agreement. Used for format-v1
    snapshots (which predate per-suffix stats) — scores computed from it
    shrink toward the 0.5 prior instead of pretending support. *)

val stats_of_nc : Consist.t -> Ncsel.t -> suffix_stats
(** Learn-time digest of a suffix's final NC: the counts, plus the
    RTT-channel agreement over its TP hits. Computed once per suffix at
    the end of {!Pipeline.run_suffix}. *)

type signals = {
  stats : suffix_stats;
  collisions : int;  (** dictionary entries that lost to the answer *)
  provenance : Evalx.provenance;
  overlay : Learned.entry option;
      (** the overlay entry that supplied the answer, when
          [provenance = Overlay] *)
}

val score : signals -> float
(** Combine the signals into [0,1]:

    [score = support · agreement · collision · overlay]

    where [support] is the suffix PPV, Laplace-smoothed and shrunk
    toward 0.5 by sample count ([(n/(n+8)) · (ppv₊ − ½) + ½]);
    [agreement] maps RTT-channel agreement into [0.85,1]; [collision]
    is [1/(1 + L/4)] for [L] losers; and [overlay] applies the same
    smoothed-PPV treatment to the overlay entry's own tp/fp (with a
    flat 0.9 haircut when the learned hint collides with the reference
    dictionary), or 1 for dictionary answers. Always in [0,1]. *)

val of_resolution :
  stats:suffix_stats ->
  learned:Learned.t ->
  Plan.extraction ->
  Hoiho_geodb.City.t list * Evalx.provenance ->
  float
(** The confidence of one resolved answer, from exactly what
    {!Evalx.resolve_explained} returned for it. 0 when the city list is
    empty (no answer ⇒ no confidence) — the same convention gives
    negative cache entries and unanswerable hostnames a uniform 0.
    Its one caller is {!Apply.apply}, which both
    {!Pipeline.geolocate_conf} and the serving path run; that single
    call site is the byte-identity argument. *)

val none : float
(** 0., the confidence of an absent answer. *)

val expected_profile : suffix_stats list -> float array
(** The confidence-decile profile (10 masses summing to 1; index [i]
    covers confidences in [[i/10, (i+1)/10)], with 1.0 in the top
    decile) this model is expected to produce on traffic shaped like
    its training corpus: per suffix, [tp+fp] mass at the suffix's
    typical positive score ([shrunk PPV × agreement]) and [fn+unk]
    mass at 0.0 (the negative-answer confidence). An evidence-free
    list puts all mass at decile 0. Pure arithmetic in list order —
    byte-identical suffix lists yield bit-identical profiles, so
    {!Learned_io.of_pipeline} and {!Delta.relearn_model} agree — the
    baseline the serving daemon's calibration-drift monitor compares
    live traffic against (DESIGN.md §14). *)

val describe_loser :
  best:Hoiho_geodb.City.t -> Hoiho_geodb.City.t -> string
(** Decision-trace rendering of one collision loser: the city plus the
    support margin it lost by (dictionary support is population — the
    ranking key of {!Hoiho_geodb.Db} lookups), so [hoiho explain] shows
    *why* the winner won, not just who lost. *)
