(** Incremental relearn: ingest a stream of hostname/RTT observation
    events, mark only the affected suffix groups dirty, and re-run the
    pipeline over just those groups while reusing the prior snapshot's
    models for clean ones (the batch→streaming step of ROADMAP open
    item 2, modeled on ip6neigh's event-driven monitor).

    The central guarantee is {b equivalence}: because each suffix
    group's result depends only on that group's routers, the VP set,
    and the dictionary (see {!Pipeline.run_groups}), {!relearn_model}
    produces a snapshot whose {!Learned_io.encode} is byte-identical to
    that of a from-scratch batch learn of the final corpus, modulo the
    wall-clock metrics block, at every [jobs] setting. Its result is
    again a valid prior, so relearns chain. The drift test suite
    (test/test_delta.ml) holds this property over seeded event streams
    at jobs 1 and 4, and over the same streams relearned in two
    steps. *)

type event =
  | Upsert of Hoiho_itdk.Router.t
      (** replace the router with this id (or add it, appended at the
          end of the corpus order) *)
  | Remove of int  (** retire a router by id *)
  | Add_hostname of { router : int; hostname : string }
      (** observed a new PTR name; a duplicate of an existing name is a
          no-op *)
  | Remove_hostname of { router : int; hostname : string }
      (** a PTR name disappeared; removing an absent name is a no-op *)
  | Set_hostnames of { router : int; hostnames : string list }
      (** wholesale rename (renumbering, convention migration) *)
  | Set_rtts of {
      router : int;
      ping : Hoiho_itdk.Rtts.t;
      trace : Hoiho_itdk.Rtts.t;
    }  (** fresh RTT measurements, replacing both channels *)

type error = Unknown_router of { event : int; id : int }
    (** [event] is the 0-based index of the offending event in the
        stream. Raised by hostname/RTT/remove events naming a router
        the corpus does not contain — only [Upsert] may introduce
        ids. *)

val error_to_string : error -> string

type stats = {
  events : int;  (** events ingested *)
  dirty : string list;  (** dirty suffixes, sorted *)
  groups_relearned : int;  (** suffix groups recomputed *)
  groups_reused : int;  (** prior results carried over untouched *)
}
(** All four fields are deterministic functions of (prior corpus, event
    stream): identical at every [jobs] setting. Mirrored into the
    process-wide [relearn.*] counters. *)

val apply :
  Hoiho_itdk.Dataset.t ->
  event list ->
  (Hoiho_itdk.Dataset.t * string list, error) result
(** Replay events over a corpus, returning the final corpus and the
    sorted dirty-suffix set. The dirty set is conservative: a touched
    router marks the registered suffixes of its hostnames both before
    and after the change, so results can only be reused for groups no
    event could have influenced. Structural no-op events (re-adding an
    existing hostname, setting identical RTTs) dirty nothing. Corpus
    order is preserved: removals filter in place, upserts of existing
    ids replace in place, new routers append — so replaying the same
    events always yields the same corpus, byte for byte. Links touching
    a removed router are dropped, also when a later event upserts its
    id again, since an upsert carries no links: one stream and the same
    events split over chained calls leave the same links. VPs and label
    are unchanged.

    The work is sized by the events: one pass over the routers finds
    the ones the events name, and the new router array, written in one
    more pass, is the only allocation proportional to the corpus. The
    link array is copied only when a router left. A stream that changes
    no router (empty, or structural no-ops only) returns its input
    corpus itself, physically. Router ids must be distinct
    ({!Hoiho_itdk.Dataset.t}). *)

val events_between :
  Hoiho_itdk.Dataset.t -> Hoiho_itdk.Dataset.t -> event list
(** The event stream turning the first corpus into the second:
    removals first, then per new-corpus-order a minimal event for each
    changed router ([Set_hostnames]/[Set_rtts] when only that field
    moved, full [Upsert] otherwise). When new routers appear at the end
    of the new corpus (the {!Hoiho_netsim.Evolve} contract), [apply]
    of the result reproduces the second corpus exactly. *)

val events_to_string : event list -> string
(** Stable JSON wire form: a list of objects discriminated by ["op"].
    Only observable fields travel — an [Upsert] carries hostnames, ASN
    and RTTs, the whole router record, so it round-trips a router
    exactly. *)

val events_of_string : string -> (event list, string) result
(** Strict decode of the wire form. Any malformed input — not JSON,
    not a list, unknown op, missing or mistyped field, a VP id beyond
    32 bits — is an [Error] naming the offending event index and the
    path inside that event, e.g. ["event 3: $.hostname: expected
    string, got int"]. Never raises. *)

val max_file_bytes : int
(** 512 MiB: {!load_events} refuses a larger file before reading it,
    naming the limit. The tiny preset's one-epoch drift stream is
    169 KB for 1,712 routers; the same drift at paper scale 1.0
    (≈2.5M routers) would be about 250 MB. *)

val load_events : string -> (event list, string) result
(** {!events_of_string} of a file's contents; an unreadable file or
    one over {!max_file_bytes} is an [Error]. *)

val relearn_model :
  ?jobs:int ->
  model:Learned_io.t ->
  corpus:Hoiho_itdk.Dataset.t ->
  event list ->
  (Learned_io.t * Hoiho_itdk.Dataset.t * stats, error) result
(** Snapshot-level incremental relearn, for serving: [model] must be a
    default-options batch learn of [corpus] (what [hoiho learn] /
    {!Learned_io.of_pipeline} produce), or an earlier [relearn_model]
    result with the corpus it returned. Applies the events, relearns
    dirty groups against the model's own dictionary, and splices fresh
    suffix models over the carried-over ones, sorted by suffix.
    The result encodes byte-identically to
    [of_pipeline (Pipeline.run ~db final_corpus)] with both metrics
    blocks normalized to [{}] (the returned model's metrics are already
    [{}] — incremental work-rates would be misleading provenance).
    Also returns the final corpus for the caller to retain as the next
    relearn's base.

    Carried groups: the suffix groups of the corpus returned last are
    kept in one process-wide slot, keyed by that corpus's physical
    identity. A relearn handed that corpus back (the daemon's next
    [/observe], a chained replay) does not group the corpus again: it
    takes the registered suffixes of the routers its events changed
    alone, and every other router's membership from the groups it was
    in. It costs the events, the dirty groups and three passes over
    the router array (find the named routers, write the new array,
    write the dirty groups in corpus order); an empty stream costs
    none of these. Any other corpus, the first one a daemon hands in
    among them, is grouped from scratch
    ({!Hoiho_itdk.Dataset.by_suffix}). The slot holds immutable
    groups, so relearns on several domains at once stay correct; the
    result never depends on which path ran. An embedded dictionary is
    still rebuilt on every relearn. *)
