(** A small, hardened HTTP/1.1 subset for the serving daemon.

    The parser reads one request at a time from a buffered {!reader}
    (socket-backed in production, string-backed in tests) and enforces
    the input-boundary limits that matter once untrusted bytes arrive
    over a network: a bounded request line, bounded header count and
    size, a bounded [Content-Length] body, a rejection of raw control
    bytes in the request line, and an overall per-request deadline so a
    slow-loris client cannot pin a connection domain by trickling one
    byte per read-timeout.

    Only what the daemon needs is implemented: [GET]/[POST],
    [Content-Length] bodies (no chunked encoding — a request with
    [Transfer-Encoding] is refused), HTTP/1.0 and 1.1 with the usual
    keep-alive defaults. Responses always carry an explicit
    [Content-Length], so clients can reuse the connection. *)

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
  | Closed  (** peer closed before a complete request was read *)
  | Timeout  (** read timed out or the per-request deadline passed *)
  | Bad_request of string  (** malformed request → 400 *)
  | Too_large of string  (** a limit was exceeded → 413 (or 431) *)

type limits = {
  max_line : int;  (** request line and each header line, bytes *)
  max_headers : int;  (** header count *)
  max_body : int;  (** [Content-Length] bound, bytes *)
  deadline_ms : float;
      (** total wall budget for reading one request, milliseconds;
          [infinity] disables the deadline *)
}

val default_limits : limits
(** 8 KiB lines, 64 headers, 1 MiB body, 5000 ms deadline. *)

type reader

val reader_of_fd : Unix.file_descr -> reader
(** Buffered reader over a socket. The fd should carry an
    [SO_RCVTIMEO] so a single blocking read cannot outlive the
    request deadline by much; [Unix.EAGAIN]/[EWOULDBLOCK]/[ETIMEDOUT]
    surface as {!Timeout}. *)

val reader_of_string : string -> reader
(** In-memory reader for tests. *)

val read_request : ?limits:limits -> reader -> (request, error) result
(** Read and parse one request. Never raises: socket errors map to
    {!Closed} or {!Timeout}, malformed input to {!Bad_request} /
    {!Too_large}. A second call on the same reader reads the next
    pipelined/keep-alive request. Returns [Error Closed] at a clean
    end-of-stream between requests. *)

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

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  status:int ->
  string ->
  string
(** Render a full HTTP/1.1 response with [Content-Length] (and
    [Connection: close] only if the caller adds it). Body is the last
    argument; [content_type] defaults to ["text/plain; charset=utf-8"]. *)
