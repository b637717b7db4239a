(** Computations behind every table and figure of the paper's
    evaluation (§6). The bench harness formats what these return;
    keeping the logic here lets the test suite cover it. *)

(** {1 Table 1 / Table 2} *)

type coverage = {
  label : string;
  total : int;
  with_hostname : int;
  responsive : int;  (** table 1 "w/ RTT" *)
  n_vps : int;
  with_apparent : int;  (** routers with an apparent geohint (table 2) *)
  geolocated : int;  (** routers geolocated by usable NCs (table 2) *)
}

val coverage : Hoiho.Pipeline.t -> coverage

(** {1 Table 3} *)

type class_counts = { good : int; promising : int; poor : int }

val classifications : Hoiho.Pipeline.t -> class_counts

(** {1 Table 4} *)

type annot = A_none | A_state | A_country | A_both

type type_breakdown = {
  hint_type : Hoiho.Plan.hint_type;
  annot : annot;
  n_good : int;
  n_promising : int;
}

val table4 : Hoiho.Pipeline.t -> type_breakdown list * int
(** Breakdown rows plus the count of mixed-type NCs. An NC's type is its
    first regex's geohint type; its annotation reflects any regex that
    also captures a state or country code. *)

(** {1 Figure 5} *)

val fig5a : Hoiho_itdk.Dataset.t -> (float * float * float) list
(** Per RTT threshold (ms): (threshold, CDF of min ping RTT,
    CDF of min traceroute RTT) over routers with both kinds of sample. *)

val fig5b : Hoiho_itdk.Dataset.t -> (int * float * float) list
(** Per VP-count threshold: (k, CDF of #VPs seeing the router in
    traceroute, CDF of #VPs with ping RTT) over responsive routers. *)

(** {1 Table 5} *)

type learned_freq = {
  hint : string;
  n_suffixes : int;
  city : Hoiho_geodb.City.t;
  in_iata_dict : bool;  (** an airport holds this code (⊗ in the paper) *)
  alternatives : (string * int) list;
      (** the city's dictionary IATA codes and how many suffixes' NCs
          extracted them as TPs *)
}

val table5 : ?top:int -> Hoiho.Pipeline.t -> learned_freq list
(** Most frequently learned geohints across suffixes (default top 6),
    restricted to 3-letter (IATA-plan) hints as in the paper. *)

(** {1 Figures 10 and 11} *)

val fig10a : Hoiho.Pipeline.t -> float list
(** Per learned geohint: best-case RTT (ms) from the closest VP to the
    learned location. *)

val fig10b : Hoiho.Pipeline.t -> float list
(** Per learned geohint whose string is also an IATA code: distance (km)
    from the learned location to the airport city holding that code. *)

val fig11 :
  Hoiho.Pipeline.t -> Hoiho_netsim.Truth.t -> suffixes:string list -> (float * bool) list
(** Per validated learned geohint: (closest-VP proximity in ms, correct?). *)

val accuracy_at : float -> (float * bool) list -> float
(** Fraction correct among entries with proximity ≤ threshold ms. *)

(** {1 CBG feasibility (Cai 2015's critique of DRoP, §3.3)} *)

type feasibility = {
  n_drop : int;  (** distinct (suffix, location) pairs DRoP inferred *)
  drop_infeasible : float;  (** Cai measured 46% for DRoP *)
  n_hoiho : int;
  hoiho_infeasible : float;
}

val cai_feasibility : Hoiho.Pipeline.t -> suffixes:string list -> feasibility
(** Fraction of each method's distinct inferred (suffix, location) pairs
    that violate the CBG-feasible region of the routers they were
    inferred for, over every hostname of the dataset (Cai probed DRoP's
    full published dataset). DRoP rules are learned fresh (no
    staleness), so the check measures interpretation quality, not
    coverage. [suffixes] is kept for API symmetry and ignored. *)

(** {1 Stale-hostname detection (§7)} *)

val stale_accuracy : Hoiho.Pipeline.t -> Hoiho.Stale.accuracy
(** Run {!Hoiho.Stale.detect} over every usable NC and score the flags
    against generator ground truth. *)

(** {1 Ablation (§6.1: value of learned geohints)} *)

type ablation = {
  with_learning : Validate.scores;
  without_learning : Validate.scores;
}

val ablation :
  ?db:Hoiho_geodb.Db.t ->
  Hoiho_itdk.Dataset.t ->
  suffixes:string list ->
  ablation
(** Run the pipeline twice — stage 4 enabled and disabled — and score
    both against ground truth over the given suffixes. *)
