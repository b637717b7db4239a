(** A fixed-size work pool over OCaml 5 domains (stdlib only), and the
    one place that decides how a fan-out runs.

    A {e fan-out} is one {!parallel_for} or {!parallel_map} call; a
    {e chunk} is the run of consecutive items one pool job takes. At
    every pool size and every [chunk], a fan-out keeps one contract:

    - every item runs, even when others raise;
    - afterwards, the exception of the lowest failing index is
      re-raised with its backtrace (each captured exception counts
      under [pool.job_exceptions]);
    - on a one-lane pool, or when the items fit in one chunk, the
      fan-out runs inline on the caller, in index order, and queues
      nothing;
    - spans a job opens ({!Trace}) nest under the span the
      fan-out started from, on whichever domain runs the job.

    For a pure function, then, the result, the failure, the work
    counters and the canonical span forest are the same at every pool
    size, and callers never branch on it.

    Worker domains are spawned on the first fan-out that queues work
    and live for the process. An idle worker claims the next chunk of
    the newest fan-out that has one unclaimed, so it helps finish work
    already started (such as the stages of a group being learned)
    before it starts more.

    {b The helping rule.} A caller waiting on its fan-out runs only
    work that fan-out is waiting for: first its own unclaimed chunks,
    then chunks of fan-outs opened inside them, at any depth, on
    whichever domain the opening chunk runs. With none of that left it
    sleeps until its last chunk finishes or such a fan-out opens, and
    its time asleep is recorded in [pool.wait_sleep_ms]. So each chunk
    nested on one domain's stack sits deeper in the code's fan-out
    nesting than the one below it: a domain holds at most one chunk
    per nesting level, and a waiting caller never starts an unrelated
    item, whose data would stay live until the caller's own wait
    ended.

    {b No deadlock.} A job may fan out on the pool it runs on. Every
    claimed chunk runs on the domain that claimed it and finishes, by
    induction on nesting depth: a chunk whose items open no fan-out
    finishes; a chunk that opens one waits on it, and each of its
    chunks is either unclaimed, so its own waiter may run it, or
    claimed, and so finishes by the induction hypothesis. *)

type t

val default_jobs : unit -> int
(** The [HOIHO_JOBS] environment variable when it is a positive
    integer. Otherwise (unset, malformed, zero or negative)
    [Domain.recommended_domain_count () - 1], since the calling thread
    is one of the lanes, and at least 1. *)

val get : int -> t
(** The process-wide pool of [max 1 jobs] lanes: the caller plus
    [jobs - 1] worker domains. Every call with the same size returns
    the same pool. No domain is spawned until a fan-out queues work. *)

val parallel_for : t -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for t n f] runs [f 0 .. f (n-1)] under the contract
    above. [chunk] fixes the items per job; unset, the items are split
    into about four chunks per lane. [chunk:1] makes every item its own
    stealable job, the right trade for heavy, unevenly sized items.
    [f] must tolerate concurrent calls on distinct indices (write
    disjoint slots, or only atomics). *)

val parallel_map : t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map under the same contract and [chunk] rule as
    {!parallel_for}. *)
