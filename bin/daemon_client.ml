(* What the daemon smoke checks (serve_check, health_check) share: one
   GET over [Http], reading the bound port off the daemon's stdout, and
   the SIGTERM shutdown contract. Every failure exits 1 through [die],
   prefixed with the running program's name. *)

module Http = Hoiho_net.Http

let prog = Filename.remove_extension (Filename.basename Sys.executable_name)

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline (prog ^ ": FAIL: " ^ m);
      exit 1)
    fmt

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

(* GET [target] from 127.0.0.1:[port] on a connection of its own:
   (status, body), read by [Http.read_response]. A connect, write or
   read failure fails the check through [fail_daemon pid], naming it. *)
let request pid port target =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      (try
         Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
         Http.write_all fd
           (Http.request ~meth:"GET"
              ~headers:[ ("Host", "c"); ("Connection", "close") ]
              target)
       with Unix.Unix_error (e, _, _) ->
         fail_daemon pid "GET %s on port %d: %s" target port
           (Unix.error_message e));
      match Http.read_response (Http.reader_of_fd fd) with
      | Ok r -> (r.Http.status, r.Http.body)
      | Error e ->
          fail_daemon pid "GET %s on port %d: %s" target port
            (match e with
            | Http.Closed -> "closed before a complete response"
            | Http.Idle | Http.Timeout -> "no complete response in time"
            | Http.Bad_request m -> "malformed response: " ^ m
            | Http.Too_large m -> "response over the bounds: " ^ m))

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
