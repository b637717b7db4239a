(** RTT-consistency testing (§5.2).

    A candidate location for a router is RTT-consistent when, for every
    vantage point with an RTT sample to the router, the measured RTT is
    no smaller than the theoretical best-case RTT from that VP to the
    location. Ping-based RTTs are used when available; otherwise the
    looser traceroute-observed RTTs (which are sound but constrain a
    much larger area, figure 5).

    Best-case VP→location RTTs are memoized per location, as one vector
    over every VP, since the same few thousand dictionary locations are
    tested against the same VPs millions of times during a run. A test
    is then one allocation-free pass over the router's packed samples
    ({!Hoiho_itdk.Rtts.first_below}).

    A value of type [t] is read-only after [create] returns and safe to
    share across domains: the pipeline fans suffix groups out over a
    {!Hoiho_obs.Pool} while every worker consults the same [t]. The
    RTT memo is domain-local storage holding the vectors of the [t] the
    domain used last, so concurrent lookups never touch a shared table
    and a finished run's memo does not outlive the next run. Any future
    mutable field must preserve this contract. *)

type t

exception Unknown_vp of int
(** An RTT sample names a VP id the dataset does not contain (corrupt
    alias resolution, or chaos injection). Raised by the lookups below
    with the offending id, deterministically — the same dataset fails
    the same way at any [jobs] setting — so the pipeline can pin the
    failure on the suffix group that carried the sample. *)

val create : Hoiho_itdk.Dataset.t -> t

val router_rtts : t -> Hoiho_itdk.Router.t -> (Hoiho_itdk.Vp.t * float) list
(** The RTT vector used for consistency testing. *)

val location_consistent :
  t -> Hoiho_itdk.Router.t -> Hoiho_geo.Coord.t -> bool
(** True when every RTT sample admits the location. A router with no
    RTT samples is vacuously consistent with any location. *)

val city_consistent : t -> Hoiho_itdk.Router.t -> Hoiho_geodb.City.t -> bool

type channel = Ping | Trace

val channel_consistent :
  t -> Hoiho_itdk.Router.t -> channel -> Hoiho_geo.Coord.t -> bool
(** {!location_consistent} restricted to one measurement channel's RTT
    samples — [location_consistent] itself uses ping when available and
    traceroute otherwise, so it can never report the two channels
    disagreeing. This can: it is the cross-channel corroboration probe
    behind {!Confidence.stats_of_nc}. Vacuously true when the channel
    has no samples for the router. *)
