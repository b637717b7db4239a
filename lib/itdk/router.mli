(** A router inferred by alias resolution, with the observations the
    geolocation method consumes: interface hostnames and minimum RTTs
    from vantage points (ping-based, and the sparser traceroute-observed
    RTTs that DRoP-style methods were limited to).

    The record holds only what was measured. A synthetic dataset's
    ground truth stays with its generator ([Hoiho_netsim.Truth], by
    router id), out of reach of the learning pipeline by the library
    graph — mirroring the paper's use of operator feedback that is
    unavailable at training time (§4 challenge 2). *)

type t = {
  id : int;
  hostnames : string list;  (** may be empty (no PTR record) *)
  asn : int option;
      (** the AS that operates the router, from BGP-derived IP2AS data —
          an observable input (like RTTs), used to train ASN-extraction
          conventions (§3.4) *)
  ping_rtts : Rtts.t;
      (** (vp id, min RTT ms) from followup ping measurements *)
  trace_rtts : Rtts.t;
      (** (vp id, min RTT ms) observed in traceroute only *)
}

val make :
  ?hostnames:string list ->
  ?asn:int ->
  ?ping_rtts:Rtts.t ->
  ?trace_rtts:Rtts.t ->
  int ->
  t

val has_hostname : t -> bool

val has_rtt : t -> bool
(** True when any RTT sample (ping or traceroute) exists. *)

val min_ping_rtt : t -> (int * float) option
(** The (vp, rtt) pair with the smallest ping RTT. *)

val min_trace_rtt : t -> (int * float) option

val suffixes : t -> string list
(** Distinct registered suffixes of this router's hostnames. *)
