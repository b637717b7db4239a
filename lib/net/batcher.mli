(** Cross-request batching with bounded admission.

    Connection handlers submit normalized hostnames and block until
    their answers arrive; a single batcher domain coalesces everything
    queued into one {!Hoiho_serve.Serve.apply_batch}-shaped call —
    up to [max_batch] hostnames or [max_wait_ms] milliseconds after
    the first queued ticket, whichever comes first. When nothing else
    is in flight (the [more_hint] callback reports no other active
    producers) a batch closes immediately, so an isolated request pays
    no coalescing latency.

    Admission control is explicit: at most [max_pending] hostnames may
    be queued; a submission that would exceed the bound is rejected
    with [`Overloaded] — the daemon turns that into a 503 — rather
    than queued into an unbounded backlog. [net.shed] counts the
    rejected hostnames, [net.batches] / [net.batch_hostnames] the
    executed work, and the [net.batch_fill] gauge keeps the largest
    batch seen.

    The [apply] callback runs on the batcher domain. It must return
    one answer per submitted key, in order, and should never raise; if
    it does, every waiter of that batch receives [`Failed] and the
    batcher keeps running. *)

type 'a t

val create :
  ?max_batch:int ->
  ?max_wait_ms:float ->
  ?max_pending:int ->
  ?more_hint:(unit -> int) ->
  apply:(string list -> 'a list) ->
  unit ->
  'a t
(** Defaults: [max_batch] 64, [max_wait_ms] 1.0, [max_pending] 1024.
    [more_hint] (default: always 0) returns the number of producers
    currently preparing or awaiting a submission — the batcher only
    waits out the coalescing window while more tickets than it has
    already collected might still arrive. *)

val submit :
  'a t -> string list -> ('a list, [ `Overloaded | `Stopped | `Failed ]) result
(** Block until the batch containing these keys has been applied.
    Answers come back in the order the keys were given. An empty list
    returns [Ok []] immediately. *)

val stop : 'a t -> unit
(** Drain every queued ticket, then join the batcher domain.
    Subsequent {!submit}s return [Error `Stopped]. Idempotent. *)
