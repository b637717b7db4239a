(** The `hoiho serve` network daemon: a multi-domain TCP/HTTP server
    over {!Hoiho_serve.Serve} — the snapshot apply path behind a
    socket.

    Threading model: [jobs] accept domains share one listening socket;
    each accepted connection is served to completion (keep-alive) on
    its accept domain with a per-request read deadline, so a
    slow-loris client costs at most one domain for one deadline: a
    request cut off by the deadline mid-way is answered 408 and
    counts as a failed request. A keep-alive connection whose client
    sends no byte of a next request before the deadline is closed with no
    response, no health-window record and no access-log line, since
    no request failed. Until then, an idle keep-alive client holds
    its domain, and [jobs] of them leave none to accept a new client,
    which then waits about one deadline for its first answer (4.8–5.2 s
    behind one idle client at [jobs = 1], tiny model, 2-vCPU host).
    ROADMAP's readiness-loop item lifts this limit. A
    batcher domain ({!Batcher}) coalesces concurrent lookups into
    {!Hoiho_serve.Serve.apply_batch} calls, and a housekeeping domain
    applies reload requests off the serving path.

    Endpoints:
    - [GET /geolocate?h=HOSTNAME] — one answer: [City.describe] text
      or ["-"], batched with concurrent requests.
    - [POST /batch] — newline-separated hostnames in the body; one
      [hostname<TAB>answer] line per input line, in order (["!invalid"]
      for names rejected at the boundary).
    - [GET /explain?h=HOSTNAME] — the answer plus the rendered
      decision trace of this one application (uncached):
      {!Hoiho_serve.Serve.explain}, the same function [hoiho explain]
      prints. Explains run concurrently, each collecting only its own
      spans.
    - [GET /metrics] — OpenMetrics exposition of the process registry
      ([text/plain; version=0.0.4; charset=utf-8]).
    - [GET /healthz] — the evaluated health state (DESIGN.md §14):
      [200 ok] when every objective is within budget, [200 degraded:
      ...] when some budget is exceeded, [503 failing: ...] (naming
      the failing objectives) when an objective burns past its
      [fail_ratio].
    - [GET /debug/slo] — strict JSON: the evaluated state, each
      objective with its current value and burn rate, and the raw
      measurement vector.
    - [GET /debug/windows] — strict JSON: per-window rolling stats
      (latency, errors, shed, confidence) plus the expected and
      observed calibration deciles behind the drift measurement.
    - [POST /reload] — hot reload of [config.model_path], the only
      file a reload reads (a client cannot name another), see below;
      [400] without a configured path, [500] naming the decode error
      while the old model keeps serving.
    - [POST /observe] — a body of {!Hoiho.Delta} wire events: the
      daemon applies them to its retained corpus ([?corpus] of {!start}),
      incrementally relearns only the dirty suffix groups, and swaps
      the result in with the warm cache carried over minus the dirty
      suffixes' entries ({!Hoiho_serve.Serve.rebuild}). Malformed
      bodies and unknown router ids get typed 400s; without a
      configured corpus every /observe is a 400. The relearn runs
      inside the one model swap (see below); lookups keep serving the
      old model until it is installed.

    Input boundary: every hostname is normalized exactly once, with
    {!Hoiho_util.Strutil.normalize_hostname}, at the request boundary,
    then guarded ({!Hoiho_util.Strutil.has_empty_dns_label}, the regex
    engine's {!Hoiho_rx.Engine.max_subject_len}); what passes is fed
    to the serve layer pre-normalized, so a served answer is
    byte-identical to in-process {!Hoiho.Pipeline.geolocate} on the
    same raw string.

    Model swaps: [POST /reload], {!request_reload} and [POST /observe]
    install their model through one function, under one mutex, with
    one atomic store; lookups never take the lock. A reload decodes
    the new snapshot and builds a fresh {!Hoiho_serve.Serve.t}
    off-path and outside the lock. An /observe relearns inside it, so
    a reload that lands during the relearn waits, then replaces the
    relearned model rather than being overwritten by it. The LRU
    lives inside the [Serve.t], so a reload also replaces the cache —
    stale entries (negative ones included) cannot survive a model
    change. In-flight batches finish on the server they started with.
    Every model swap also swaps the expected calibration profile the
    drift monitor compares served confidences against.

    Observability: every response carries an [X-Request-Id] header
    (the client's, when sane, else a generated one). The daemon
    records no spans except inside an explain. With [access_log] set,
    every response appends one
    {!Access_log.entry} JSON line. A {!Hoiho_obs.Health.monitor}
    aggregates per-request latency/error/shed/confidence into rolling
    windows; the housekeeping domain re-evaluates it continuously and
    publishes [health.state] (0/1/2) and
    [health.calibration_drift_ppm] gauges. The observability endpoints
    themselves ([/healthz], [/metrics], [/debug/*]) are access-logged
    but excluded from the health windows — a probe seeing a 503
    {e because} the daemon is failing must not count as a fresh
    service error, or watching a failing daemon would pin it failing. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port, see {!port} *)
  jobs : int;  (** accept domains; also the apply parallelism *)
  max_pending : int;  (** admission bound; beyond it requests get 503 *)
  request_timeout_s : float;
      (** per-request read deadline, and how long a keep-alive
          connection may wait for its next request *)
  model_path : string option;
      (** the snapshot [POST /reload] and {!request_reload} re-read *)
  slo : Slo.t;
      (** objectives and window of the health monitor (what [--slo
          FILE] supplies via {!Slo.load}); {!Slo.default} is generous
          enough that a clean server evaluates [Ok] *)
  access_log : string option;
      (** JSON-lines access log path ({!Access_log}); [None] disables.
          An unwritable path fails {!start}. *)
}

val default_config : config
(** 127.0.0.1:0, jobs = {!Hoiho_obs.Pool.default_jobs}, max_pending
    1024, request_timeout_s 5.0, no model path, {!Slo.default} (default
    objectives over a 60 s window of 12 buckets), no access log.
    Request coalescing uses {!Batcher.create}'s defaults: at most 64
    hostnames per batch, held open at most 1 ms. Request bodies are
    capped at {!Http.default_limits}'s [max_body] (1 MiB), and an
    access log rotates at {!Access_log.create}'s default (16 MiB). *)

type t

val start : ?config:config -> ?corpus:Hoiho_itdk.Dataset.t -> Hoiho.Learned_io.t -> t
(** Bind, listen, and spawn the accept/batcher/housekeeping domains.
    [corpus] backs [POST /observe]; it must be the corpus the served
    model was (default-options) learned from, or the
    incremental-equivalence contract of {!Hoiho.Delta} does not apply.
    The daemon then retains the corpus each /observe produces. A
    reload leaves that corpus in place, so a reloaded snapshot keeps
    /observe batch-equivalent only if it was learned from it. Without
    [corpus] /observe is disabled. Raises [Unix.Unix_error] if the
    address cannot be bound. *)

val port : t -> int
(** The bound port (the ephemeral one when [config.port] was 0). *)

val monitor : t -> Hoiho_obs.Health.monitor
(** The live health monitor — what chaos tests feed synthetic
    latency/error samples through to drive state transitions. *)

val request_reload : t -> unit
(** Mark a reload wanted (what a SIGHUP handler calls — async-signal
    safe: one atomic store). The housekeeping domain reloads
    [config.model_path] shortly after, as [POST /reload] does; on a
    decode error the old model keeps serving. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, let in-flight requests finish,
    drain the batcher, join every domain, close the listener.
    Idempotent. *)
