(** The apply path: learned naming conventions answering one hostname.

    This is the only code that turns a hostname into a location. The
    in-process {!Pipeline.geolocate_conf} and the serving layer
    ({!Hoiho_serve.Serve}) both index their suffix models here and call
    {!apply}, so their answers — and their decision traces — are the
    same by construction. *)

type cand = {
  source : string;  (** concrete regex syntax, the serialized form *)
  plan : Plan.t;
  regex : Hoiho_rx.Engine.t;
      (** compiled from [source]; on snapshot decode the compilation is
          re-validated, so a loaded model is ready to serve *)
}

type suffix_model = {
  suffix : string;
  classification : Ncsel.classification;
  cands : cand list;  (** in application order, first match wins *)
  learned : Learned.t;  (** operator-geohint overlay (stage 4) *)
  stats : Confidence.suffix_stats;
      (** the suffix's confidence signals at learn time;
          {!Confidence.no_stats} when unknown (a v1 snapshot) *)
}

type answer = {
  city : Hoiho_geodb.City.t option;
  confidence : float;
      (** the {!Confidence} score of this answer, in [0,1]. Exactly 0
          when [city] is [None]: negative answers carry an explicit 0
          rather than omitting the field. *)
}

val no_answer : answer
(** [{ city = None; confidence = Confidence.none }]. *)

type index
(** Suffix models keyed by registered suffix. Read-only once built, so
    any number of domains may {!find} and {!apply} against it. *)

val index : suffix_model list -> (index, int * string) result
(** Index a model list. [Error (i, suffix)] names the first duplicate:
    [i] is the list position of the second model claiming [suffix]. A
    duplicate is a corrupt model — which half would answer would
    depend on list order — so no index is built for it. *)

val find : index -> string -> suffix_model option

val apply : Hoiho_geodb.Db.t -> index -> string -> answer
(** [apply db index hostname] answers an already-normalized hostname
    ({!Hoiho_util.Strutil.normalize_hostname}): split off its registered
    suffix, and if that suffix's model is classified good or promising,
    try its regexes in order; the first that matches and decodes is
    resolved through the learned overlay and [db], and scored by
    {!Confidence.of_resolution}. Never raises, whatever bytes the
    hostname contains. The answer is the convention's claim; no RTT
    check is applied.

    With {!Hoiho_obs.Trace} enabled it emits the decision trace
    [hoiho explain] renders: [apply] (hostname, answer) wrapping
    [apply.psl] (the suffix split), one [apply.cand] per regex tried
    (match, capture groups, decoded hint) and [apply.resolve]
    (provenance, resolved city, collision losers, confidence). The
    [apply] span nests under the caller's current span, also when the
    call runs in a {!Hoiho_obs.Pool} job on another domain. *)
