(** End-to-end orchestration of the five-stage method (figure 4) over a
    router-level dataset: group routers by domain suffix, tag apparent
    geohints, generate and evaluate regexes, learn operator geohints,
    re-select, and classify the per-suffix naming convention. *)

type degradation = {
  stage : string;
      (** which stage failed: "apparent", "regen", "ncsel", "learn",
          "reselect", or "suffix" for failures outside any stage *)
  error : string;  (** [Printexc.to_string] of the captured exception *)
}

type suffix_result = {
  suffix : string;
  n_routers : int;
  n_samples : int;  (** hostnames under this suffix *)
  n_tagged : int;  (** hostnames with an apparent geohint *)
  n_tagged_routers : int;
  nc : Ncsel.t option;  (** best NC after learned-geohint refinement *)
  learned : Learned.t;
  classification : Ncsel.classification option;
  stats : Confidence.suffix_stats option;
      (** confidence signals digested from the final NC ([Some] exactly
          when [nc] is): support counts and RTT-channel agreement,
          carried into snapshots so served answers score identically *)
  degraded : degradation option;
      (** [Some _] when a stage raised: the group learned nothing
          ([nc = None], zero sample counts) but the run carried on —
          one poisoned suffix cannot abort the others. [None] on every
          clean run. Counted under [pipeline.suffix_degraded], and
          deterministic: the same dataset degrades the same suffixes
          with the same stage/error at any [jobs] setting. *)
}

type t = {
  dataset : Hoiho_itdk.Dataset.t;
  consist : Consist.t;
  db : Hoiho_geodb.Db.t;
  results : suffix_result list;
  index : Apply.index;
      (** the servable projection of [results]
          ({!suffix_model_of_result}), indexed once for
          {!geolocate_conf} when {!run} finishes; a record update of
          [results] leaves it describing the old results. *)
  metrics : Hoiho_obs.Obs.snapshot;
      (** observability snapshot taken when the run finished: per-stage
          durations, rx/ncsel/pool counters (see DESIGN.md §7). The
          registry is process-wide and cumulative; call
          {!Hoiho_obs.Obs.reset} before [run] to scope the snapshot to
          this run alone. *)
}

val suffix_model_of_result : suffix_result -> Apply.suffix_model option
(** The servable extract of one suffix result: [Some _] exactly when
    the group selected an NC and was classified, with stats defaulting
    to {!Confidence.no_stats}. The one projection behind {!t.index},
    {!Learned_io.of_pipeline} and {!Delta.relearn_model}, so in-process
    and served answers come from the same models. *)

val run :
  ?db:Hoiho_geodb.Db.t ->
  ?learn_geohints:bool ->
  ?jobs:int ->
  Hoiho_itdk.Dataset.t ->
  t
(** [learn_geohints:false] disables stage 4 (used by the ablation
    experiment). [jobs] (default {!Hoiho_obs.Pool.default_jobs},
    i.e. the [HOIHO_JOBS] env var or cores − 1) fans the independent
    suffix groups — and candidate evaluation within each — out over a
    shared domain pool. Results are deterministic: any [jobs] value
    produces results identical to [jobs:1]. *)

val run_groups :
  Consist.t ->
  Hoiho_geodb.Db.t ->
  ?learn_geohints:bool ->
  ?jobs:int ->
  (string * Hoiho_itdk.Router.t list) list ->
  suffix_result list
(** Run the per-suffix pipeline over an explicit list of suffix groups,
    returning results in input-group order. This is the fan-out core of
    {!run}, exposed so {!Delta.relearn_model} can drive it over just the
    dirty groups: given the same [consist]/[db]/options, each group's
    result depends only on that group's routers (the per-suffix stages
    never look across groups), so recomputing a subset yields results
    byte-identical to the corresponding slice of a full {!run}.
    Deterministic across [jobs] like {!run}. *)

val run_suffix :
  Consist.t ->
  Hoiho_geodb.Db.t ->
  ?learn_geohints:bool ->
  ?jobs:int ->
  suffix:string ->
  Hoiho_itdk.Router.t list ->
  suffix_result
(** The per-suffix pipeline, exposed for examples and tests. *)

val usable : suffix_result -> bool
(** Classified, and {!Ncsel.usable}. *)

val find : t -> string -> suffix_result option

val geolocate : t -> string -> Hoiho_geodb.City.t option
(** [fst] of {!geolocate_conf}. *)

val geolocate_conf : t -> string -> Hoiho_geodb.City.t option * float
(** Apply the learned conventions to one hostname: normalize it once
    ({!Hoiho_util.Strutil.normalize_hostname}, so mixed case, a trailing
    root dot, and stray whitespace geolocate the same as the canonical
    form), then {!Apply.apply} it against {!t.index}. Returns the
    answer's city and its {!Confidence} score in [0,1] (0 exactly when
    the city is [None]). Never raises; deterministic across [jobs]
    settings, and byte-identical — answer and decision trace — to
    {!Hoiho_serve} on this run's snapshot. *)

val geolocated_routers : t -> suffix_result -> int
(** Routers of a suffix with at least one TP hostname under the NC. *)
