(* What the daemon smoke checks (serve_check, health_check) share: a
   minimal HTTP client, reading the bound port off the daemon's stdout,
   and the SIGTERM shutdown contract. Every failure exits 1 through
   [die], prefixed with the running program's name. *)

let prog = Filename.remove_extension (Filename.basename Sys.executable_name)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline (prog ^ ": FAIL: " ^ m);
      exit 1)
    fmt

(* --- minimal HTTP client (Connection: close per request) --- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let read_to_eof fd =
  let buf = Bytes.create 4096 and b = Buffer.create 1024 in
  let rec go () =
    match Unix.read fd buf 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception
        Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT | ECONNRESET), _, _)
      ->
        ()
  in
  go ();
  Buffer.contents b

(* GET [target] from 127.0.0.1:[port]: (status, body), status 0 when
   the response has no parsable status line *)
let request port target =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      (try
         Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0
       with Unix.Unix_error (e, _, _) ->
         die "connect to 127.0.0.1:%d: %s" port (Unix.error_message e));
      write_all fd
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: c\r\nConnection: close\r\n\r\n"
           target);
      let raw = read_to_eof fd in
      let status =
        if String.length raw >= 12 && String.sub raw 0 9 = "HTTP/1.1 " then
          Option.value ~default:0 (int_of_string_opt (String.sub raw 9 3))
        else 0
      in
      let body =
        let n = String.length raw in
        let rec find i =
          if i + 3 >= n then None
          else if
            raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
            && raw.[i + 3] = '\n'
          then Some (i + 4)
          else find (i + 1)
        in
        match find 0 with Some i -> String.sub raw i (n - i) | None -> ""
      in
      (status, body))

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- daemon lifecycle --- *)

let read_line_deadline fd deadline =
  let b = Buffer.create 128 in
  let one = Bytes.create 1 in
  let rec go () =
    let now = Unix.gettimeofday () in
    if now > deadline then die "timed out waiting for daemon output";
    match Unix.select [ fd ] [] [] (deadline -. now) with
    | [], _, _ -> die "timed out waiting for daemon output"
    | _ -> (
        match Unix.read fd one 0 1 with
        | 0 -> die "daemon closed stdout before printing its port"
        | _ ->
            if Bytes.get one 0 = '\n' then Buffer.contents b
            else begin
              Buffer.add_char b (Bytes.get one 0);
              go ()
            end
        | exception Unix.Unix_error (EINTR, _, _) -> go ())
  in
  go ()

(* "hoiho: serving MODEL on HOST:PORT (jobs=N)" *)
let parse_port line =
  match String.index_opt line '(' with
  | None -> None
  | Some paren -> (
      let before = String.trim (String.sub line 0 paren) in
      match String.rindex_opt before ':' with
      | None -> None
      | Some i ->
          int_of_string_opt
            (String.trim (String.sub before (i + 1) (String.length before - i - 1)))
      )

(* the port line is first, but tolerate a short preamble *)
let await_port fd deadline =
  let rec go tries =
    if tries = 0 then die "daemon never printed its bound port";
    match parse_port (read_line_deadline fd deadline) with
    | Some p -> p
    | None -> go (tries - 1)
  in
  go 5

(* kill and reap the daemon before failing, so no check leaves it
   running *)
let fail_daemon pid fmt =
  Printf.ksprintf
    (fun m ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      die "%s" m)
    fmt

(* SIGTERM must produce a clean exit before [deadline]: status 0,
   never a signal death *)
let terminate pid deadline =
  Unix.kill pid Sys.sigterm;
  let rec wait_exit () =
    if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      die "daemon did not exit within the deadline after SIGTERM"
    end;
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
        Unix.sleepf 0.05;
        wait_exit ()
    | _, st -> st
  in
  match wait_exit () with
  | WEXITED 0 -> ()
  | WEXITED n -> die "daemon exited %d after SIGTERM (want 0)" n
  | WSIGNALED s -> die "daemon died on signal %d instead of handling SIGTERM" s
  | WSTOPPED s -> die "daemon stopped on signal %d" s
