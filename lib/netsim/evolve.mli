(** Time-evolving corpora: advance a synthetic dataset one epoch of
    naming drift, so incremental relearn and drift detection have
    ground truth to validate against (ROADMAP open item 2, after the
    Longitudinal IP Geolocation study's churn taxonomy).

    Four drift processes, all seeded and deterministic:
    - {b convention migration} — an operator re-rolls its hostname
      templates ({!Oper.migrate}) and its whole fleet re-renders;
    - {b renumbering} — individual routers get fresh names under the
      unchanged convention;
    - {b stale-name decay} — routers whose names carry another site's
      code (§4.3) finally get corrected;
    - {b churn} — routers are retired, and sites grow new routers
      (appended at the end of the corpus, so
      {!Hoiho.Delta.events_between} replays the epoch order-exactly).

    Routers never move: RTT observations survive every rename, exactly
    as reassigning PTR records leaves latency untouched. *)

type config = {
  seed : int;
  p_renumber : float;  (** per named router: fresh names, same convention *)
  p_migrate : float;  (** per operator: convention migration *)
  p_decay : float;  (** per stale-named router: the stale name decays *)
  p_add : float;  (** per site: one new router appears *)
  p_remove : float;  (** per named router: retired *)
}

val default : seed:int -> config
(** Mild drift: renumber 8%, migrate 12% of operators, decay half the
    stale names, add per-site 4%, remove 3%. *)

val epoch :
  config ->
  Hoiho_itdk.Dataset.t * Truth.t ->
  Hoiho_itdk.Dataset.t * Truth.t
(** One epoch of drift. Deterministic in [config.seed] and the input.
    A router is resolved to its operator and site through its answer
    key in the given {!Truth.t}; unnamed (and otherwise unresolvable)
    routers carry over untouched. The returned {!Truth.t} is new: it
    reflects migrated conventions against the same dictionary and holds
    the answer key of every router of the new corpus. The given one is
    left as it was, so the corpus may as well be one loaded from disk,
    which carries no truth. *)
