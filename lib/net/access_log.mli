(** Structured per-request access logging for the serving daemon:
    JSON-lines entries rendered with {!Hoiho_util.Json}, written
    whole-line under a mutex with flush-per-line, and rotated by size
    (DESIGN.md §14).

    The entry is plain data and {!line_of_entry} is pure — equal
    entries render equal bytes — so tests replay a request sequence
    and pin the log byte-for-byte without a daemon in the loop. The
    daemon writes one line per HTTP response, including boundary
    rejections and sheds. *)

type entry = {
  request_id : string;  (** echoed or generated [X-Request-Id] *)
  endpoint : string;  (** ["GET /geolocate"]; ["-"] for unparsable requests *)
  status : int;
  latency_us : int;  (** request wall time, microseconds *)
  batch : int;  (** hostnames submitted to the batcher (0 for non-lookup) *)
  cache_hit : bool;
      (** every submitted hostname was already cached (read-only probe,
          {!Hoiho_serve.Serve.cached}); false for non-lookup requests *)
  confidence : float option;
      (** the answer's confidence for single-hostname lookups *)
  shed : bool;  (** 503 from admission control *)
  degraded : bool;  (** health state was Degraded/Failing when served *)
}

val line_of_entry : entry -> string
(** One compact JSON object, no trailing newline. Field order is fixed
    ([request_id], [endpoint], [status], [latency_us], [batch],
    [cache_hit], [confidence], [shed], [degraded]); [confidence] is
    [null] when absent. Pure: equal entries render equal bytes. *)

(** {1 Writer} *)

type t

val create : ?max_bytes:int -> string -> (t, string) result
(** Open [path] for appending (created if missing). [max_bytes]
    (default 16 MiB) bounds the file: when a write pushes past it the
    file is rotated — renamed to [path ^ ".1"] (replacing any previous
    rotation) and reopened fresh, so the live file plus one
    predecessor is the total disk budget. Unwritable paths are
    [Error]. *)

val log : t -> entry -> unit
(** Append one line atomically with respect to other [log] calls (the
    writer mutex covers render-check-rotate-write-flush), flushing so
    a crash loses at most the in-flight line. Write failures are
    swallowed: logging must never take the serving path down. *)

val close : t -> unit
(** Flush and close. Idempotent; [log] after [close] is a no-op. *)
