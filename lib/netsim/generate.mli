(** Synthetic ITDK assembly: operators → routers, hostnames, VPs, RTTs.

    The RTT model guarantees soundness of the speed-of-light test:
    every simulated RTT is the theoretical best-case RTT between the VP
    and the router's true location, multiplied by a path-inflation
    factor ≥ 1 and with additive access/queueing delay. Traceroute-
    observed RTTs come from fewer VPs and carry much higher inflation,
    reproducing the ping-vs-traceroute gap of figure 5. *)

type config = {
  label : string;
  seed : int;
  n_geo_consistent : int;
  n_geo_small : int;
  n_geo_mixed : int;
  n_multikind : int;  (** operators mixing two geohint types *)
  n_compound : int;
      (** AT&T-style operators with undelimited compound geohints
          (figure 12a) — embedded but unparseable *)
  n_nogeo : int;
  n_extra_towns : int;
      (** synthetic GeoNames-style towns added to the dictionary and
          available as deployment sites; keeps the VP constellation
          sparse relative to the places routers live, as in reality *)
  n_spoofing_vps : int;
      (** VPs whose access router spoofs responses, reporting 1-2 ms to
          every target (§5.1.4 — the paper discarded 7 such VPs by
          hand; {!Hoiho.Vpfilter} detects them automatically). 0 by
          default: spoofing breaks the RTT soundness invariant until
          the filter removes it. *)
  include_validation : bool;
  n_vps : int;
  hostname_fraction : float;
      (** target fraction of all routers that have hostnames *)
  p_responsive_unnamed : float;
}

val generate : config -> Hoiho_itdk.Dataset.t * Truth.t
(** Deterministic in [config.seed]. The returned {!Truth.t} carries the
    (possibly town-expanded) dictionary; run the pipeline with
    [Pipeline.run ~db:(Truth.db truth)] so it can interpret hints for
    synthetic towns. *)

val router_hostnames :
  Hoiho_util.Prng.t ->
  Oper.t ->
  Oper.site ->
  (string * string option * bool) list
(** Render one router's hostnames under the operator's convention:
    (hostname, embedded geohint code, stale) per interface — stale
    names carry another site's code (§4.3). Exposed for {!Evolve},
    which re-renders individual routers when conventions migrate or
    stale names decay. *)

val fresh_router :
  Hoiho_util.Prng.t ->
  Hoiho_itdk.Vp.t array ->
  id:int ->
  Oper.t ->
  Oper.site ->
  Hoiho_itdk.Router.t
(** A complete new router at a site: hostnames, RTT observations from
    every VP, and ground truth. Exposed for {!Evolve} (site growth
    between epochs). *)
