(* The HTTP client side of the serve workloads: single requests for
   probes and scrapes, and the open-loop load generator.

   The generator owns one keep-alive connection per domain. Request i
   is due at t0 + i/rate; each connection sends every request that is
   due, without waiting for earlier answers (HTTP/1.1 pipelining), and
   reads answers as they arrive. A request's latency runs from its due
   time to its answer, so a stall shows in every request it delays. How
   late the generator itself sent is recorded apart. *)

open Common

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let connect port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try
     Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     harness_error "connect to 127.0.0.1:%d: %s" port (Unix.error_message e));
  fd

(* --- incremental response parsing --- *)

type reader = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable start : int; mutable len : int }

let reader fd = { fd; buf = Bytes.create 65536; start = 0; len = 0 }

(* read whatever is available (the caller knows the fd is readable);
   false at end of stream *)
let fill r =
  if r.start + r.len = Bytes.length r.buf then begin
    if r.start > 0 then begin
      Bytes.blit r.buf r.start r.buf 0 r.len;
      r.start <- 0
    end
    else begin
      let b = Bytes.create (2 * Bytes.length r.buf) in
      Bytes.blit r.buf 0 b 0 r.len;
      r.buf <- b
    end
  end;
  let off = r.start + r.len in
  match Unix.read r.fd r.buf off (Bytes.length r.buf - off) with
  | 0 -> false
  | n ->
      r.len <- r.len + n;
      true
  | exception Unix.Unix_error ((EINTR | EAGAIN), _, _) -> true
  | exception Unix.Unix_error (ECONNRESET, _, _) -> false

let find_crlf2 r =
  let stop = r.start + r.len - 4 in
  let rec go i =
    if i > stop then None
    else if
      Bytes.get r.buf i = '\r'
      && Bytes.get r.buf (i + 1) = '\n'
      && Bytes.get r.buf (i + 2) = '\r'
      && Bytes.get r.buf (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go r.start

let content_length head =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i when String.lowercase_ascii (String.sub line 0 i) = "content-length" ->
          int_of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> acc)
    None
    (String.split_on_char '\n' head)

(* one complete response from the buffer: (status, body) *)
let take_response r =
  match find_crlf2 r with
  | None -> None
  | Some i -> (
      let head = Bytes.sub_string r.buf r.start (i - r.start) in
      let status =
        if String.length head >= 12 then
          Option.value ~default:0 (int_of_string_opt (String.sub head 9 3))
        else 0
      in
      match content_length head with
      | None -> harness_error "response without Content-Length: %S" head
      | Some n ->
          let body_start = i + 4 in
          if body_start + n > r.start + r.len then None
          else begin
            let body = Bytes.sub_string r.buf body_start n in
            r.len <- r.len - (body_start + n - r.start);
            r.start <- body_start + n;
            Some (status, body)
          end)

let wait_readable fd timeout =
  match Unix.select [ fd ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (EINTR, _, _) -> false

(* --- single requests --- *)

let request_bytes ?(close = false) ?body meth target =
  let body_headers, body =
    match body with
    | None -> ("", "")
    | Some b -> (Printf.sprintf "Content-Length: %d\r\n" (String.length b), b)
  in
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: bench\r\n%s%s\r\n%s" meth target
    (if close then "Connection: close\r\n" else "")
    body_headers body

let geolocate_request h = request_bytes "GET" ("/geolocate?h=" ^ Hoiho_net.Http.pct_encode h)

(* one request over an open connection; waits up to [timeout] s *)
let exchange ?(timeout = 30.0) r req =
  write_all r.fd req;
  let deadline = now_s () +. timeout in
  let rec go () =
    match take_response r with
    | Some resp -> resp
    | None ->
        let left = deadline -. now_s () in
        if left <= 0.0 then harness_error "no response within %.0f s" timeout;
        if wait_readable r.fd left && not (fill r) then
          harness_error "connection closed before a response arrived";
        go ()
  in
  go ()

(* a fresh connection for one request *)
let once ?timeout ?body port meth target =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> exchange ?timeout (reader fd) (request_bytes ~close:true ?body meth target))

(* --- the open loop --- *)

type outcome = {
  latency_ms : float array;  (** due time to answer; nan when never answered *)
  late_ms : float array;  (** send time minus due time *)
  answered_at : float array;  (** seconds, same clock as [t0] *)
  good : bool array;  (** 200 with the expected body *)
}

let conn_loop ~port ~t0 ~rate ~drain ~ids ~req ~expect (o : outcome) =
  let fd = connect port in
  let r = reader fd in
  let n = Array.length ids in
  let due k = t0 +. (float_of_int ids.(k) /. rate) in
  let sent = ref 0 and got = ref 0 in
  let last_due = if n = 0 then t0 else due (n - 1) in
  let give_up = last_due +. drain in
  let pending = Buffer.create 4096 in
  (try
     while !got < n && now_s () < give_up do
       let now = now_s () in
       while !sent < n && due !sent <= now do
         let i = ids.(!sent) in
         o.late_ms.(i) <- (now -. due !sent) *. 1000.0;
         Buffer.add_string pending (req i);
         incr sent
       done;
       if Buffer.length pending > 0 then begin
         write_all fd (Buffer.contents pending);
         Buffer.clear pending
       end;
       let until = if !sent < n then due !sent else give_up in
       if wait_readable fd (until -. now_s ()) then begin
         let alive = fill r in
         let at = now_s () in
         let rec drain_responses () =
           match take_response r with
           | Some (status, body) ->
               let k = !got in
               let i = ids.(k) in
               o.latency_ms.(i) <- (at -. due k) *. 1000.0;
               o.answered_at.(i) <- at;
               o.good.(i) <- status = 200 && expect i body;
               incr got;
               drain_responses ()
           | None -> ()
         in
         drain_responses ();
         if not alive then raise Exit
       end
     done
   with Exit | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* [n] requests at [rate] per second over two connections, one domain
   each; request i goes to connection i mod 2. A request not
   answered [drain] seconds after the last one was due never is.
   [during t0] runs on the calling domain while the load is on. *)
let open_loop ?(drain = 10.0) ?(during = ignore) ~port ~rate ~n ~req ~expect () =
  let o =
    {
      latency_ms = Array.make n nan;
      late_ms = Array.make n nan;
      answered_at = Array.make n nan;
      good = Array.make n false;
    }
  in
  let t0 = now_s () +. 0.05 in
  let doms =
    List.init 2 (fun c ->
        let ids = Array.of_list (List.filter (fun i -> i mod 2 = c) (List.init n Fun.id)) in
        Domain.spawn (fun () -> conn_loop ~port ~t0 ~rate ~drain ~ids ~req ~expect o))
  in
  Fun.protect ~finally:(fun () -> List.iter Domain.join doms) (fun () -> during t0);
  (t0, o)

let bad o = Array.fold_left (fun n g -> if g then n else n + 1) 0 o.good

(* latencies with unanswered requests counted as infinitely late *)
let latencies o = Array.map (fun x -> if Float.is_nan x then infinity else x) o.latency_ms
