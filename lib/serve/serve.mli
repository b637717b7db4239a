(** The model serving layer: high-throughput application of a decoded
    {!Hoiho.Learned_io} snapshot to hostnames, without re-learning.

    A server resolves the snapshot's dictionary once, indexes its
    suffix models ({!Hoiho.Apply.index}), and memoizes answers —
    positive and negative — in a sharded {!Lru} cache in front of the
    pure apply path, {!Hoiho.Apply.apply}. Batches fan uncached
    hostnames out over the shared domain pool. The apply logic itself
    lives in {!Hoiho.Apply}; this layer adds only the cache and
    batching.

    Counters: [serve.cache_hits], [serve.cache_misses] (one per distinct
    probe), [serve.cache_evictions] (from {!Lru}), and [serve.applied]
    (hostnames answered, cached or not). {!apply_batch} wall time lands
    in the [serve.batch_ms] histogram.

    Under {!Hoiho_obs.Trace.collect} the serving path emits spans:
    [serve.batch] around a batch, and per application the [apply]
    subtree {!Hoiho.Apply.apply} records. {!explain} is the one
    decision trace, [hoiho explain] and [GET /explain] alike.

    Determinism: {!apply_batch} produces results — and cache-work
    counters — identical at any [jobs] setting: the cache is probed
    sequentially once per distinct normalized hostname, only the pure
    per-miss computation is parallelized, and insertions happen in
    first-appearance order. The answers are byte-identical to
    {!Hoiho.Pipeline.geolocate_conf} on the run the model was saved
    from: both call {!Hoiho.Apply.apply} on the same projection. *)

type t

type answer = Hoiho.Apply.answer = {
  city : Hoiho_geodb.City.t option;
  confidence : float;
}
(** Cached entries, negative ones included, batch rows and cold-path
    answers all share this one shape. *)

val create : ?cache_capacity:int -> ?cache_shards:int -> Hoiho.Learned_io.t -> t
(** Build a server: resolve the dictionary ({!Hoiho.Learned_io.db}),
    index suffixes, allocate the cache ([cache_capacity] entries,
    default 65536, across [cache_shards] shards, default 8).
    Raises [Invalid_argument] if two suffix models share a suffix —
    a corrupt model that {!Hoiho.Learned_io.decode} also rejects. *)

val rebuild : ?dirty:string list -> t -> Hoiho.Learned_io.t -> t
(** Swap in a new model while carrying the warm cache over — the
    incremental-relearn counterpart of {!create}. [dirty] names every
    registered suffix whose model or corpus changed (the
    {!Hoiho.Delta} dirty set): cached entries — negative answers
    included — whose key falls under a dirty suffix are evicted
    (counted under [serve.cache_invalidated]); everything else keeps
    serving warm. Soundness is the caller's contract: an entry whose
    suffix is not listed must answer identically under the new model.
    With [dirty] omitted the cache carries over untouched (a swap known
    to change nothing). The old server is retired: an {!apply_batch}
    still running on it when [rebuild] evicts takes back the entries it
    adds, so none of its answers outlives the eviction. For a full
    reload with unknown provenance use {!create}, which starts cold. *)

val model : t -> Hoiho.Learned_io.t

val geolocate_conf : t -> string -> answer
(** Apply the model to one hostname, through the cache. Never raises;
    normalization matches {!Hoiho.Pipeline.geolocate_conf} exactly. *)

val geolocate_uncached_conf : t -> string -> answer
(** The pure apply path, bypassing the cache (still never raises). *)

val explain : t -> string -> answer * string
(** The uncached answer and its decision trace: the [apply] span tree
    of this one application, collected by {!Hoiho_obs.Trace.collect}
    (so concurrent explains and other traffic never mix in) and
    rendered by {!Hoiho_obs.Trace.render_text}. *)

val apply_batch :
  ?jobs:int ->
  ?normalized:bool ->
  t ->
  string list ->
  (string * answer) list
(** Answer a batch, in input order, each hostname paired with its
    geolocation and confidence. Distinct uncached hostnames are computed in parallel
    over the shared pool ([jobs] defaults to
    {!Hoiho_obs.Pool.default_jobs}); duplicates within the batch are
    computed once. [normalized] (default false) promises every
    hostname is already in {!Hoiho_util.Strutil.normalize_hostname}
    form — the network boundary normalizes exactly once and sets it,
    so hostnames are never normalized twice on the serving path. *)

val cache_length : t -> int

val cached : t -> string -> bool
(** Read-only cache probe on an already-normalized key: no recency
    promotion, no hit/miss counters. The serving daemon uses it to
    stamp access-log lines with a cache-hit flag without perturbing
    the deterministic [serve.*] counters. *)
