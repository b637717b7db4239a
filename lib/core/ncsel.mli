(** Phase 4 and stage 5: assemble regexes into naming conventions (NCs),
    rank them, and classify the winner (§5.3 appendix A, §5.5).

    An NC is an ordered list of regexes; a hostname's outcome comes from
    the first regex that matches it. Set building is greedy: seed with a
    high-ATP regex, repeatedly add the regex that most improves ATP,
    subject to each member extracting ≥3 unique geohints and the PPV not
    dropping more than 10 points below the seed's. The final selection
    prefers an NC with fewer regexes when it is within 3 TPs of the
    best. *)

type classification = Good | Promising | Poor

type t = {
  cands : Cand.t list;  (** member regexes, in application order *)
  counts : Evalx.counts;
  hits : Evalx.hit list;  (** one per sample, from the first matching regex *)
  unique_hints : int;  (** distinct TP hint strings *)
}

val eval_nc :
  Consist.t ->
  Hoiho_geodb.Db.t ->
  ?learned:Learned.t ->
  Cand.t list ->
  Apparent.sample list ->
  t

val build :
  ?jobs:int ->
  Consist.t ->
  Hoiho_geodb.Db.t ->
  ?learned:Learned.t ->
  Cand.t list ->
  Apparent.sample list ->
  t option
(** Full phase 4 + final selection. [None] when no candidate matches
    anything. Candidates with an identical (regex source, plan) pair
    are evaluated once. [jobs] (default {!Hoiho_obs.Pool.default_jobs})
    fans the per-candidate evaluation out over a domain pool; results
    are independent of [jobs]. *)

val classify : t -> classification
(** good: ≥3 unique hints and PPV ≥ 0.9; promising: ≥3 and PPV ≥ 0.8;
    poor otherwise. *)

val usable : classification -> bool
(** good or promising: the one rule for which classified NCs are
    applied ({!Apply.apply}) and counted ({!Pipeline.usable}). *)

val seed_count : int
(** Number of top-ranked candidates used as set-building seeds. *)
