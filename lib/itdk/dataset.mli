(** A router-level topology dataset in the style of a CAIDA ITDK
    (§5.1.3): routers with hostnames and RTT observations, plus the
    vantage points the RTTs were measured from. *)

type t = {
  label : string;  (** e.g. "Aug '20 IPv4" *)
  routers : Router.t array;
      (** one router per id, in corpus order. No code writes into this
          array after {!make}: a change to a corpus is a new [t] with
          a new array ({!Hoiho.Delta.apply}), so a value computed from
          a corpus can be memoized on its physical identity, as
          {!Hoiho.Delta.relearn_model} does with its suffix groups.
          {!Io.read} refuses two routers with one id. *)
  vps : Vp.t array;
  links : (int * int) array;
      (** router adjacencies observed in traceroute, by router id —
          the topological constraints TBG-style methods use (§3.1) *)
}

val make :
  ?links:(int * int) array ->
  label:string ->
  routers:Router.t array ->
  vps:Vp.t array ->
  unit ->
  t

val vp : t -> int -> Vp.t
(** Lookup by VP id. Raises [Not_found] for an unknown id. *)

val n_routers : t -> int
val n_with_hostname : t -> int

val n_responsive : t -> int
(** Routers with ping RTT samples (the "w/ RTT" row of table 1;
    traceroute-only observations do not count). *)

val by_suffix : t -> (string * Router.t list) list
(** Routers grouped by the registered suffix of their hostnames; a
    router with hostnames under several suffixes appears in each group,
    and each group lists its routers in corpus order. Sorted by
    descending group size, ties in hash-table order: a consumer that
    spends one draw of a seeded generator per group in this order (the
    DRoP baseline's staleness) depends on it, so it stays as it is. A
    snapshot does not: it sorts its suffixes by name. *)

val summary : t -> string
(** Table 1-style one-line summary. *)
