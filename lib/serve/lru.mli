(** Sharded LRU cache keyed by string — the memo in front of the model
    apply path ({!Serve}).

    Keys are partitioned across independent shards by a deterministic
    FNV-1a hash, each shard guarded by its own mutex so concurrent
    domains contend only when they touch the same shard. Within a shard,
    entries live on an intrusive doubly-linked recency list: a [find]
    hit promotes the entry to most-recent, and an [add] past capacity
    evicts the least-recent entry (counted under
    [serve.cache_evictions]).

    Values are arbitrary — in particular ['v] may itself be an option,
    which is how {!Serve} caches negative answers (a hostname known to
    geolocate to nothing is a cache hit, not a recomputation).

    Determinism: shard assignment depends only on the key bytes, and
    eviction order only on the sequence of [find]/[add] calls — so a
    caller that probes and inserts in a fixed order gets identical cache
    state and eviction counts at any domain count. *)

type 'v t

val create : ?shards:int -> capacity:int -> unit -> 'v t
(** [capacity] is the total entry budget, split evenly across [shards]
    (default 8; both clamped to at least 1). *)

val shards : 'v t -> int

val shard_of : 'v t -> string -> int
(** The shard index a key maps to — deterministic in the key bytes. *)

val find : 'v t -> string -> 'v option
(** [Some v] when cached (and promotes the entry to most-recent). *)

val mem : 'v t -> string -> bool
(** Read-only membership probe: no recency promotion, no counters —
    for observers (e.g. access-log cache-hit flags) that must not
    perturb the deterministic eviction order. *)

val add : 'v t -> string -> 'v -> unit
(** Insert or overwrite; may evict the shard's least-recent entry. *)

val remove_matching : 'v t -> (string -> bool) -> int
(** Drop every entry whose key satisfies the predicate, returning how
    many were removed. Used by incremental model swaps to invalidate
    exactly the dirty suffixes' entries (positive and negative alike)
    while the rest of the warm cache survives. The predicate runs under
    the shard lock — keep it pure and fast. *)

val length : 'v t -> int
(** Entries currently cached, over all shards. *)

val clear : 'v t -> unit
