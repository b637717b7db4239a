(* `dune build @check` serve smoke: boot the real daemon binary on an
   ephemeral port, drive it over a real socket, and shut it down the
   way an init system would.

     serve_check CLI_EXE MODEL EXPECTED

   Asserts, in order:
   - the daemon prints its bound port and answers GET /healthz;
   - every hostname of the pinned golden subset (EXPECTED, the same
     file the apply smoke diffs against) is served with the pinned
     answer — the socket path agrees with the apply path;
   - GET /metrics parses as OpenMetrics enough to matter: hoiho_
     samples present, "# EOF" terminator last;
   - SIGTERM produces a clean exit: status 0 and the shutdown line on
     stdout, never a signal death. *)

open Daemon_client

(* EXPECTED lines are apply's "%-50s ANSWER\tCONF" format; the daemon
   speaks "ANSWER\tCONF" with "(no geolocation)" spelled "-", so map
   the prefix and keep the confidence column *)
let parse_expected path =
  let ic = open_in path in
  let lines = ref [] in
  let nog = "(no geolocation)" in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         match String.index_opt line ' ' with
         | None -> die "malformed expected line %S" line
         | Some i ->
             let h = String.sub line 0 i in
             let a = String.trim (String.sub line i (String.length line - i)) in
             let a =
               if
                 String.length a >= String.length nog
                 && String.sub a 0 (String.length nog) = nog
               then "-" ^ String.sub a (String.length nog)
                            (String.length a - String.length nog)
               else a
             in
             lines := (h, a) :: !lines
       end
     done
   with End_of_file -> close_in_noerr ic);
  List.rev !lines

let () =
  let cli, model, expected =
    match Sys.argv with
    | [| _; cli; model; expected |] -> (cli, model, expected)
    | _ -> die "usage: serve_check CLI_EXE MODEL EXPECTED"
  in
  (* dune hands over a bare filename when the exe sits in the rule's
     own directory; exec needs a path, not a PATH lookup *)
  let cli = if String.contains cli '/' then cli else "./" ^ cli in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let golden = parse_expected expected in
  if golden = [] then die "expected file %s is empty" expected;
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--model"; model; "--port"; "0"; "--jobs"; "2" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let port = await_port out_r deadline in
  (* healthz *)
  let status, body = request port "/healthz" in
  if status <> 200 || body <> "ok\n" then
    fail_daemon pid "/healthz: status %d body %S" status body;
  (* golden subset over the socket *)
  List.iter
    (fun (h, answer) ->
      let status, body = request port ("/geolocate?h=" ^ h) in
      if status <> 200 then fail_daemon pid "/geolocate?h=%s: status %d" h status;
      if body <> answer ^ "\n" then
        fail_daemon pid "/geolocate?h=%s: served %S, pinned %S" h body answer)
    golden;
  (* metrics exposition *)
  let status, body = request port "/metrics" in
  if status <> 200 then fail_daemon pid "/metrics: status %d" status;
  if not (contains body "hoiho_net_requests_total") then
    fail_daemon pid "/metrics: no hoiho_net_requests_total sample";
  if
    not
      (String.length body >= 6
      && String.sub body (String.length body - 6) 6 = "# EOF\n")
  then fail_daemon pid "/metrics: missing \"# EOF\" terminator";
  (* clean shutdown on SIGTERM *)
  terminate pid deadline;
  let rest = read_to_eof out_r in
  if not (contains rest "shut down cleanly") then
    die "daemon exited 0 but without the clean-shutdown line (got %S)" rest;
  Printf.printf
    "serve_check: OK — %d golden hostnames served on port %d, metrics \
     exposition complete, clean SIGTERM shutdown\n"
    (List.length golden) port
