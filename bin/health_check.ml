(* `dune build @check` health smoke: boot the real daemon with a tight
   SLO file and an access log, drive the health state machine with
   injected fault load over a real socket, and leave the observability
   artifacts behind for CI to upload.

     health_check CLI_EXE MODEL ACCESS_LOG SLO_SNAPSHOT

   Asserts, in order:
   - `hoiho health URL` against a listener that never accepts gives up
     on its own deadline and exits 2;
   - against a listener that answers a status line and then trickles
     one byte every 0.5 s, the probe's deadline covers the whole answer:
     it exits 2 within 11 s;
   - a clean daemon under the tight SLO answers /healthz 200 "ok";
   - `hoiho health URL` (the CLI probe) exits 0 against it;
   - a burst of injected faults (404 storms tripping the error_rate
     objective) flips /healthz to 503 with the failing objective named
     in the body, and /debug/slo reports state "failing" (snapshot
     saved to SLO_SNAPSHOT);
   - the CLI probe exits 1 while failing;
   - once the fault load stops, the bad requests age out of the
     sliding window and /healthz recovers to 200 with no restart;
   - after SIGTERM, the access log holds one strict-JSON line per
     request, faults included. *)

open Daemon_client

(* `hoiho health URL`'s exit code. A probe still running after 15 s is
   killed and fails the check (with [daemon], if given), so a probe that
   hangs fails CI rather than hanging it. *)
let run_probe ?daemon cli url =
  let fail m =
    match daemon with Some pid -> fail_daemon pid "%s" m | None -> die "%s" m
  in
  let pid =
    Unix.create_process cli
      [| cli; "health"; url |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        fail (Printf.sprintf "`hoiho health %s` still running after 15 s" url)
    | _, WEXITED n -> n
    | _, _ -> fail "health probe died on a signal"
  in
  wait ()

(* a loopback listener on an ephemeral port, and its URL *)
let listener () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  match Unix.getsockname fd with
  | ADDR_INET (_, p) -> (fd, Printf.sprintf "http://127.0.0.1:%d" p)
  | ADDR_UNIX _ -> die "listener has no port"

let () =
  let cli, model, access_path, snapshot_path =
    match Sys.argv with
    | [| _; cli; model; access; snap |] -> (cli, model, access, snap)
    | _ -> die "usage: health_check CLI_EXE MODEL ACCESS_LOG SLO_SNAPSHOT"
  in
  let cli = if String.contains cli '/' then cli else "./" ^ cli in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (* phase 0: the kernel completes the handshake into the backlog of a
     listener that never accepts, so the probe's request is sent and
     never answered *)
  let silent, silent_url = listener () in
  (match run_probe cli silent_url with
  | 2 -> ()
  | n -> die "probe of a listener that never accepts exited %d (want 2)" n);
  Unix.close silent;
  (* phase 0b: a listener, on a domain of its own, answers a status
     line and then one byte every 0.5 s for as long as the probe reads,
     so each read beats the probe's socket timeout and only its
     whole-answer deadline can end the probe *)
  let trickle, trickle_url = listener () in
  let trickler =
    Domain.spawn (fun () ->
        match Unix.select [ trickle ] [] [] 15.0 with
        | [], _, _ -> ()
        | _ ->
            let fd, _ = Unix.accept trickle in
            let rec drip s =
              match Unix.write_substring fd s 0 (String.length s) with
              | _ ->
                  Unix.sleepf 0.5;
                  drip "x"
              | exception Unix.Unix_error _ -> ()
            in
            drip "HTTP/1.1 200 OK\r\n";
            Unix.close fd)
  in
  let t0 = Unix.gettimeofday () in
  (match run_probe cli trickle_url with
  | 2 -> ()
  | n -> die "probe of a trickled answer exited %d (want 2)" n);
  let took = Unix.gettimeofday () -. t0 in
  if took > 11.0 then
    die "probe of a trickled answer took %.1f s (want at most 11 s)" took;
  Domain.join trickler;
  Unix.close trickle;
  (* a tight SLO: a short 2 s window so the state machine transitions
     fast, and an error_rate budget any 404 storm tramples *)
  let slo_path = Filename.temp_file "hoiho_health_slo" ".json" in
  let oc = open_out slo_path in
  output_string oc
    {|{"window_s": 2, "buckets": 4,
       "objectives": [
         {"metric": "error_rate", "max": 0.02, "fail_ratio": 2.0},
         {"metric": "latency_p99_ms", "max": 5000, "fail_ratio": 3.0}]}|};
  close_out oc;
  (try Sys.remove access_path with Sys_error _ -> ());
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--model"; model; "--port"; "0"; "--jobs"; "2";
         "--slo"; slo_path; "--access-log"; access_path |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let deadline = Unix.gettimeofday () +. 120.0 in
  let port = await_port out_r deadline in
  let url = Printf.sprintf "http://127.0.0.1:%d" port in
  (* phase 1: clean daemon is healthy, CLI probe agrees *)
  let status, body = request pid port "/healthz" in
  if status <> 200 || body <> "ok\n" then
    fail_daemon pid "clean /healthz: status %d body %S" status body;
  (match run_probe ~daemon:pid cli url with
  | 0 -> ()
  | n -> fail_daemon pid "healthy probe exited %d (want 0)" n);
  (* phase 2: fault injection — a 404 storm burns the error budget *)
  let n_faults = 40 in
  for _ = 1 to n_faults do
    ignore (request pid port "/chaos-nonexistent")
  done;
  let status, body = request pid port "/healthz" in
  if status <> 503 then
    fail_daemon pid "under fault load /healthz: status %d body %S (want 503)"
      status body;
  if not (contains body "failing:") then
    fail_daemon pid "503 body does not render the failing state: %S" body;
  if not (contains body "error_rate") then
    fail_daemon pid "503 body does not name the burned objective: %S" body;
  (* snapshot /debug/slo while failing — the CI artifact *)
  let status, slo_body = request pid port "/debug/slo" in
  if status <> 200 then fail_daemon pid "/debug/slo: status %d" status;
  if not (contains slo_body "\"state\":\"failing\"") then
    fail_daemon pid "/debug/slo does not report failing: %S" slo_body;
  let oc = open_out snapshot_path in
  output_string oc slo_body;
  close_out oc;
  (match run_probe ~daemon:pid cli url with
  | 1 -> ()
  | n -> fail_daemon pid "failing probe exited %d (want 1)" n);
  (* phase 3: stop the fault load; the bad requests age out of the 2 s
     window and the daemon recovers with no restart *)
  let rec await_recovery () =
    if Unix.gettimeofday () > deadline then
      fail_daemon pid "daemon never recovered after the fault load stopped";
    let status, body = request pid port "/healthz" in
    if status = 200 && body = "ok\n" then ()
    else begin
      Unix.sleepf 0.3;
      await_recovery ()
    end
  in
  await_recovery ();
  (match run_probe ~daemon:pid cli url with
  | 0 -> ()
  | n -> fail_daemon pid "recovered probe exited %d (want 0)" n);
  (* clean shutdown, then audit the access log *)
  terminate pid deadline;
  (try Sys.remove slo_path with Sys_error _ -> ());
  let ic = open_in_bin access_path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' raw) in
  if List.length lines < n_faults + 4 then
    die "access log has %d lines, expected at least %d" (List.length lines)
      (n_faults + 4);
  List.iter
    (fun line ->
      if not (String.length line > 1 && line.[0] = '{'
              && line.[String.length line - 1] = '}') then
        die "access log line is not a JSON object: %S" line;
      if not (contains line "\"request_id\":") then
        die "access log line lacks request_id: %S" line)
    lines;
  if not (contains raw "\"status\":404") then
    die "access log never recorded the injected 404 faults";
  if not (contains raw "\"endpoint\":\"GET /healthz\"") then
    die "access log never recorded a health probe";
  if not (contains raw "\"degraded\":true") then
    die "access log never flagged a request served while degraded";
  Printf.printf
    "health_check: OK — silent listener probe exit 2, trickled answer \
     probe exit 2 in %.1f s, healthz 200 -> 503 (error_rate named) -> 200 \
     on port %d, CLI probe exit codes 0/1/0, %d access-log lines audited\n"
    took port (List.length lines)
