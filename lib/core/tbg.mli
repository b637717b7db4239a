(** Topology-based geolocation (TBG; Katz-Bassett et al. 2006, §3.1),
    seeded with naming-convention anchors.

    The paper positions its learned conventions as anchors for TBG:
    routers that hostname conventions geolocate confidently constrain
    the location of adjacent routers that have no usable hostname, since
    most traceroute-observed links connect routers in the same PoP or
    between nearby cities. This module implements the simplest sound
    variant: a router inherits a candidate location from its anchored
    neighbors when that location also satisfies the router's own RTT
    constraints.

    The conclusion calls synthesizing these capabilities "perhaps the
    most promising next step"; the `tbg` bench experiment measures the
    coverage it adds. *)

type anchor = { router_id : int; city : Hoiho_geodb.City.t }

type inference = {
  router_id : int;
  city : Hoiho_geodb.City.t;  (** the anchored neighbor's location *)
  via : int;  (** the anchor's router id *)
  n_anchor_neighbors : int;
}

val anchors_of_pipeline : Pipeline.t -> anchor list
(** One anchor per router that a usable NC geolocates (TP hostnames). *)

val infer :
  Consist.t -> Hoiho_itdk.Dataset.t -> anchor list -> inference list
(** For every router without an anchor: collect anchored neighbors,
    keep the neighbor locations consistent with the router's own RTTs,
    and pick the location shared by the most anchored neighbors. The
    links are indexed in one pass per call, not scanned per router. *)

val coverage_gain : Pipeline.t -> inference list * int
(** Convenience: anchors from the pipeline, inferences over its dataset,
    and the number of anchors used. *)
