(** Validation against generator ground truth, replaying the paper's §6
    protocol: a geolocation is correct when it lands within 40 km of the
    router's true location (the threshold used by DRoP and figure 9). *)

val threshold_km : float

val correct : Hoiho_geodb.City.t -> Hoiho_geo.Coord.t -> bool
(** Inferred city within {!threshold_km} of the true coordinate. *)

type scores = { tp : int; fp : int; fn : int }
(** Per-method tallies over a set of ground-truth hostnames. *)

val total : scores -> int
val tp_pct : scores -> float
val fp_pct : scores -> float
val fn_pct : scores -> float
val ppv : scores -> float

type gt_hostname = {
  hostname : string;
  router : Hoiho_itdk.Router.t;
  true_coord : Hoiho_geo.Coord.t;
  code : string;  (** the geohint the operator embedded *)
}

val ground_truth_hostnames :
  Hoiho_itdk.Dataset.t -> Hoiho_netsim.Truth.t -> suffix:string -> gt_hostname list
(** Hostnames of a suffix that are known (from generator truth — the
    stand-in for operator feedback) to contain a geohint, in corpus
    order: the dataset's routers are looked up in the truth by id. *)

val score :
  (gt_hostname -> Hoiho_geodb.City.t option) -> gt_hostname list -> scores
(** Evaluate one inference method over a ground-truth set. *)

type comparison = {
  suffix : string;
  n : int;  (** ground-truth hostnames *)
  hoiho : scores;
  hloc : scores;
  drop : scores;
  undns : scores;
}

val compare_methods :
  Hoiho.Pipeline.t ->
  Hoiho_netsim.Truth.t ->
  suffixes:string list ->
  comparison list
(** Figure 9: run Hoiho, HLOC, DRoP and undns over each suffix's
    ground-truth hostnames. DRoP rules are learned from the same
    dataset; the undns ruleset is built from the true codebooks at 60%
    coverage (emulating its stale, partial hand-built database). *)

type learned_check = {
  suffix : string;
  hint : string;
  learned_city : Hoiho_geodb.City.t;
  true_city_key : string option;
  ok : bool;
}

val check_learned :
  Hoiho.Pipeline.t -> Hoiho_netsim.Truth.t -> suffixes:string list -> learned_check list
(** Table 6: is each learned geohint the city the operator meant? *)
