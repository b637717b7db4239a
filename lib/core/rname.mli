(** Router-name extraction (§3.4; Luckie et al., IMC 2019) — the first
    Hoiho capability, completing the platform triple alongside ASNs
    (2020) and geolocation (this paper).

    Interfaces of the same router usually share a stable substring — the
    *router name* ("core1.ash1" in figure 1). Given alias-resolved
    routers, the learner finds a per-suffix regex whose capture is
    identical across a router's interfaces and unique to that router. *)

type counts = { tp : int; fp : int; fn : int }
(** Per multi-interface router: TP when every interface extracts the
    same name and no other router extracts it too; FP when interfaces
    disagree or two routers collide on a name; FN when the regex misses
    some interface. *)

type t = {
  regex : Hoiho_rx.Engine.t;
  source : string;
  counts : counts;
  n_labels : int;  (** how many trailing labels form the name *)
}

val learn : suffix:string -> Hoiho_itdk.Router.t list -> t option
(** Learn from the routers (only those with ≥2 hostnames under the
    suffix train; single-interface routers participate in uniqueness
    checking). [None] when no multi-interface router exists. *)

val usable : t -> bool
(** ≥3 routers named correctly with PPV ≥ 0.8. *)

val extract : t -> string -> string option
(** The router name of a hostname under this convention. *)
