(** A small, hardened HTTP/1.1 subset: both halves of the codec the
    serving daemon and its clients speak.

    Both readers parse one message at a time from a buffered {!reader}
    (socket-backed in production, string-backed in tests) and enforce
    the input-boundary limits that matter once untrusted bytes arrive
    over a network: a bounded first line, bounded header count and
    size, a bounded [Content-Length] body, a rejection of raw control
    bytes in the first line, and an overall per-message deadline, so a
    slow-loris peer cannot pin a connection domain (or a client) by
    trickling one byte per read-timeout.

    Only what the daemon needs is implemented: [GET]/[POST],
    [Content-Length] bodies (no chunked encoding: a message with
    [Transfer-Encoding] is refused), HTTP/1.0 and 1.1 with the usual
    keep-alive defaults. Responses always carry an explicit
    [Content-Length], so clients can reuse the connection; a response
    without one is refused. *)

(* declared before [request], so an unannotated [x.body] or [x.headers]
   still reads a request's *)
type response = {
  status : int;  (** the three-digit code *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type request = {
  meth : string;  (** verbatim, e.g. ["GET"] *)
  target : string;  (** raw request-target, e.g. ["/geolocate?h=x"] *)
  path : string;  (** target up to [?], percent-decoded *)
  query : (string * string) list;  (** decoded key/value pairs, in order *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
  http11 : bool;  (** false for HTTP/1.0 *)
}

type error =
  | Closed  (** peer closed before a complete message was read *)
  | Idle
      (** the per-message deadline passed before the message's first
          byte: a keep-alive client with nothing more to send, or a
          server that never answered *)
  | Timeout  (** the per-message deadline passed after the first byte *)
  | Bad_request of string  (** malformed message (a request → 400) *)
  | Too_large of string  (** a limit was exceeded (a request → 413) *)

type limits = {
  max_line : int;  (** first line and each header line, bytes *)
  max_headers : int;  (** header count *)
  max_body : int;  (** [Content-Length] bound, bytes *)
  deadline_ms : float;
      (** total wall budget for reading one message, milliseconds;
          [infinity] disables the deadline *)
}

val default_limits : limits
(** 8 KiB lines, 64 headers, 1 MiB body, 5000 ms deadline. *)

type reader

val reader_of_fd : Unix.file_descr -> reader
(** Buffered reader over a socket. Under a finite deadline, each
    blocking read first sets the socket's [SO_RCVTIMEO] to the time the
    message has left (at least 1 ms), so no read outlives the deadline;
    [Unix.EAGAIN]/[EWOULDBLOCK]/[ETIMEDOUT] surface as {!Idle} before
    a message's first byte and as {!Timeout} after it. The caller sets
    no receive timeout of its own. *)

val reader_of_string : string -> reader
(** In-memory reader for tests. *)

val read_request : ?limits:limits -> reader -> (request, error) result
(** Read and parse one request. Never raises: socket errors map to
    {!Closed}, {!Idle} or {!Timeout}, malformed input to
    {!Bad_request} / {!Too_large}. A second call on the same reader
    reads the next pipelined/keep-alive request. Returns
    [Error Closed] at a clean end-of-stream between requests, and
    [Error Idle] when the deadline passes before the request's first
    byte (one empty line before the request line is not part of it). *)

val read_response : reader -> (response, error) result
(** Read and parse one response: an [HTTP/1.0] or [HTTP/1.1] status
    line with a three-digit code (the reason phrase is not kept),
    headers, and the [Content-Length] body, under {!default_limits}
    and the same whole-message deadline as {!read_request}. A response
    without [Content-Length], or with [Transfer-Encoding], is
    {!Bad_request}; a length over [max_body] is {!Too_large} before any
    body byte is read, and a deadline that passes before the first
    byte is {!Idle}. Bytes past the body stay in the reader for the
    next call (keep-alive). Never raises. *)

val keep_alive : request -> bool
(** HTTP/1.1 unless [Connection: close]; HTTP/1.0 only with
    [Connection: keep-alive]. *)

val header : request -> string -> string option
(** Case-insensitive header lookup (name must be given lowercase). *)

val query_param : request -> string -> string option
(** First value of a query parameter, already percent-decoded. *)

val pct_decode : string -> string option
(** Percent-decoding with [+] as space; [None] on a malformed or
    truncated escape. *)

val pct_encode : string -> string
(** Conservative encoding for query values: alphanumerics and
    [-._~] verbatim, everything else as [%XX]. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying on [EINTR]; other [Unix_error]s
    propagate ([EAGAIN] once an [SO_SNDTIMEO] expires). *)

val request :
  ?headers:(string * string) list -> ?body:string -> meth:string -> string -> string
(** Render an HTTP/1.1 request for the target (the last argument, e.g.
    ["/healthz"]): [headers] in order, then [Content-Length] when
    [body] is non-empty. The caller supplies [Host] and [Connection]. *)

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  status:int ->
  string ->
  string
(** Render a full HTTP/1.1 response with [Content-Length] (and
    [Connection: close] only if the caller adds it). Body is the last
    argument; [content_type] defaults to ["text/plain; charset=utf-8"]. *)
