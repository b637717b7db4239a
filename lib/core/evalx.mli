(** Regex and naming-convention evaluation (§5.3).

    Per hostname, a regex earns: TP when its extraction decodes to an
    RTT-consistent location and it captured any state/country code that
    stage 2 tagged as part of the apparent geohint; FP when the
    extraction decodes but is not RTT-consistent; FN when it fails to
    match (or drops the tagged state/country code) on a hostname with an
    apparent geohint; UNK when the extraction is not in the dictionary.
    Rankings use ATP = TP − (FP + FN + UNK) and PPV = TP / (TP + FP). *)

type outcome = TP | FP | FN | UNK | Skip
(** [Skip]: no match on a hostname that had no apparent geohint. *)

type counts = { tp : int; fp : int; fn : int; unk : int }

val zero : counts
val add_outcome : counts -> outcome -> counts
val atp : counts -> int
val ppv : counts -> float
(** 0 when TP+FP = 0. *)

type hit = {
  sample : Apparent.sample;
  outcome : outcome;
  extraction : Plan.extraction option;  (** present when the regex matched *)
  location : Hoiho_geodb.City.t option;
      (** decoded location on TP (best candidate) *)
}

val eval_sample :
  Consist.t ->
  Hoiho_geodb.Db.t ->
  ?learned:Learned.t ->
  Cand.t ->
  Apparent.sample ->
  hit

val eval_cand_counts :
  Consist.t ->
  Hoiho_geodb.Db.t ->
  ?learned:Learned.t ->
  Cand.t ->
  Apparent.sample list ->
  counts
(** The outcomes of {!eval_sample} over [samples], counted without
    materializing the hits — for scoring loops that only rank
    candidates by counts. *)

val unique_tp_hints : hit list -> string list
(** Distinct hint strings among TP hits. *)

type provenance = Overlay | Dictionary

val provenance_name : provenance -> string

val resolve_explained :
  Hoiho_geodb.Db.t ->
  ?learned:Learned.t ->
  Plan.extraction ->
  Hoiho_geodb.City.t list * provenance
(** Candidate locations for an extraction: the learned overlay first,
    then the reference dictionary filtered by any extracted country and
    state codes (unfiltered when the filter leaves nothing). The
    provenance says which of the two supplied them; the decision traces
    of [hoiho explain] record it. *)
