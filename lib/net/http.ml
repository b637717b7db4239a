module Obs = Hoiho_obs.Obs

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
  http11 : bool;
}

type error =
  | Closed
  | Timeout
  | Bad_request of string
  | Too_large of string

type limits = {
  max_line : int;
  max_headers : int;
  max_body : int;
  deadline_ms : float;
}

let default_limits =
  { max_line = 8192; max_headers = 64; max_body = 1 lsl 20; deadline_ms = 5000.0 }

(* --- buffered reader --- *)

type source = Fd of Unix.file_descr | Str of string

type reader = {
  src : source;
  buf : Bytes.t;
  mutable len : int;  (* valid bytes in [buf] *)
  mutable pos : int;  (* consumed prefix of the valid bytes *)
  mutable spos : int;  (* cursor into a [Str] source *)
}

let reader_of_fd fd =
  { src = Fd fd; buf = Bytes.create 8192; len = 0; pos = 0; spos = 0 }

let reader_of_string s =
  { src = Str s; buf = Bytes.create 8192; len = 0; pos = 0; spos = 0 }

exception Read_error of error

(* refill the buffer with at least one more byte; raises [Read_error]
   on timeout/close. The per-message deadline is enforced here: a
   socket read may block only for the time the message has left, so a
   slow-loris peer that trickles bytes cannot stretch one message past
   [deadline]. *)
let rec refill r ~deadline =
  if r.pos = r.len then begin
    let left_ms = deadline -. Obs.now_ms () in
    if left_ms < 0.0 then raise (Read_error Timeout);
    r.pos <- 0;
    r.len <- 0;
    match r.src with
    | Str s ->
        let remaining = String.length s - r.spos in
        if remaining <= 0 then raise (Read_error Closed);
        let n = min remaining (Bytes.length r.buf) in
        Bytes.blit_string s r.spos r.buf 0 n;
        r.spos <- r.spos + n;
        r.len <- n
    | Fd fd -> (
        match
          (* an SO_RCVTIMEO of 0 means no timeout, hence the 1 ms floor *)
          if deadline < infinity then
            Unix.setsockopt_float fd SO_RCVTIMEO (Float.max 0.001 (left_ms /. 1000.0));
          Unix.read fd r.buf 0 (Bytes.length r.buf)
        with
        | 0 -> raise (Read_error Closed)
        | n -> r.len <- n
        | exception Unix.Unix_error (EINTR, _, _) -> refill r ~deadline
        | exception
            Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
            raise (Read_error Timeout)
        | exception Unix.Unix_error (_, _, _) -> raise (Read_error Closed))
  end

let next_byte r ~deadline =
  refill r ~deadline;
  let c = Bytes.get r.buf r.pos in
  r.pos <- r.pos + 1;
  c

(* one line, terminated by LF (a preceding CR is stripped), bounded *)
let read_line r ~deadline ~max_line =
  let b = Buffer.create 128 in
  let rec go () =
    let c = next_byte r ~deadline in
    if c = '\n' then begin
      let s = Buffer.contents b in
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
    end
    else begin
      if Buffer.length b >= max_line then
        raise (Read_error (Too_large "line too long"));
      Buffer.add_char b c;
      go ()
    end
  in
  go ()

let read_exact r ~deadline n =
  let b = Buffer.create n in
  let rec go () =
    if Buffer.length b < n then begin
      refill r ~deadline;
      let take = min (r.len - r.pos) (n - Buffer.length b) in
      Buffer.add_subbytes b r.buf r.pos take;
      r.pos <- r.pos + take;
      go ()
    end
  in
  go ();
  Buffer.contents b

(* --- percent decoding / encoding --- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let pct_decode s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents b)
    else
      match s.[i] with
      | '%' ->
          if i + 2 >= n then None
          else (
            match (hex_val s.[i + 1], hex_val s.[i + 2]) with
            | Some hi, Some lo ->
                Buffer.add_char b (Char.chr ((hi * 16) + lo));
                go (i + 3)
            | _ -> None)
      | '+' ->
          Buffer.add_char b ' ';
          go (i + 1)
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 0

let pct_encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' | '_' | '~' ->
          Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

(* decoded key/value pairs of a query string; pairs with malformed
   escapes are dropped rather than failing the whole request *)
let parse_query q =
  String.split_on_char '&' q
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           let k, v =
             match String.index_opt kv '=' with
             | Some i ->
                 ( String.sub kv 0 i,
                   String.sub kv (i + 1) (String.length kv - i - 1) )
             | None -> (kv, "")
           in
           match (pct_decode k, pct_decode v) with
           | Some k, Some v -> Some (k, v)
           | _ -> None)

(* --- message parsing --- *)

let has_ctl s = String.exists (fun c -> Char.code c < 0x20 || c = '\x7f') s

let split_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] -> Some (meth, target, version)
  | _ -> None

let bad m = raise (Read_error (Bad_request m))

(* the whole message must arrive before one deadline *)
let deadline limits =
  if limits.deadline_ms = infinity then infinity
  else Obs.now_ms () +. limits.deadline_ms

(* header lines up to the empty one, names lowercased and values
   trimmed, in order *)
let read_headers r ~deadline ~limits =
  let rec go n acc =
    let line = read_line r ~deadline ~max_line:limits.max_line in
    if line = "" then List.rev acc
    else begin
      if n >= limits.max_headers then
        raise (Read_error (Too_large "too many headers"));
      match String.index_opt line ':' with
      | Some i when i > 0 ->
          let name = String.lowercase_ascii (String.sub line 0 i) in
          let value =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          go (n + 1) ((name, value) :: acc)
      | _ -> bad "malformed header"
    end
  in
  go 0 []

(* the body its [Content-Length] frames, [None] without one; a length
   over [max_body] is refused before any body byte is read *)
let read_body r ~deadline ~limits headers =
  if List.mem_assoc "transfer-encoding" headers then
    bad "transfer-encoding not supported";
  match List.assoc_opt "content-length" headers with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n > limits.max_body ->
          raise (Read_error (Too_large "body too large"))
      | Some n when n >= 0 -> Some (read_exact r ~deadline n)
      | _ -> bad "malformed content-length")

let read_request ?(limits = default_limits) r =
  let deadline = deadline limits in
  match
    (* the line between keep-alive requests: a clean close here is
       [Closed], not an error worth logging *)
    let line = read_line r ~deadline ~max_line:limits.max_line in
    (* tolerate one empty line before the request line (stray CRLF
       after a previous body, as curl and some proxies emit) *)
    let line =
      if line = "" then read_line r ~deadline ~max_line:limits.max_line
      else line
    in
    if has_ctl line then bad "control byte in request line";
    let meth, target, version =
      match split_request_line line with
      | Some x -> x
      | None -> bad "malformed request line"
    in
    let http11 =
      match version with
      | "HTTP/1.1" -> true
      | "HTTP/1.0" -> false
      | _ -> bad "unsupported HTTP version"
    in
    let headers = read_headers r ~deadline ~limits in
    let body =
      Option.value (read_body r ~deadline ~limits headers) ~default:""
    in
    let path_raw, query =
      match String.index_opt target '?' with
      | Some i ->
          ( String.sub target 0 i,
            parse_query (String.sub target (i + 1) (String.length target - i - 1))
          )
      | None -> (target, [])
    in
    let path =
      match pct_decode path_raw with
      | Some p -> p
      | None -> bad "malformed path escape"
    in
    { meth; target; path; query; headers; body; http11 }
  with
  | req -> Ok req
  | exception Read_error e -> Error e

(* "HTTP/1.x NNN REASON"; the reason, possibly empty or absent, is
   not kept *)
let read_response r =
  let limits = default_limits in
  let deadline = deadline limits in
  match
    let line = read_line r ~deadline ~max_line:limits.max_line in
    if has_ctl line then bad "control byte in status line";
    let n = String.length line in
    let digit i = i < n && line.[i] >= '0' && line.[i] <= '9' in
    if
      not
        ((String.starts_with ~prefix:"HTTP/1.1 " line
         || String.starts_with ~prefix:"HTTP/1.0 " line)
        && digit 9 && digit 10 && digit 11
        && (n = 12 || line.[12] = ' '))
    then bad "malformed status line";
    let status = int_of_string (String.sub line 9 3) in
    let headers = read_headers r ~deadline ~limits in
    match read_body r ~deadline ~limits headers with
    | Some body -> { status; headers; body }
    | None -> bad "response without content-length"
  with
  | resp -> Ok resp
  | exception Read_error e -> Error e

let header req name = List.assoc_opt name req.headers

let keep_alive req =
  match header req "connection" with
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "close" -> false
      | "keep-alive" -> true
      | _ -> req.http11)
  | None -> req.http11

let query_param req name = List.assoc_opt name req.query

(* --- writing --- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let add_headers b headers =
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s: %s\r\n" k v))
    headers

let request ?(headers = []) ?(body = "") ~meth target =
  let b = Buffer.create (String.length body + 128) in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth target);
  add_headers b headers;
  if body <> "" then
    Buffer.add_string b
      (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | s -> Printf.sprintf "Status %d" s

let response ?(headers = []) ?(content_type = "text/plain; charset=utf-8")
    ~status body =
  let b = Buffer.create (String.length body + 160) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  Buffer.add_string b (Printf.sprintf "Content-Type: %s\r\n" content_type);
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  add_headers b headers;
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b
