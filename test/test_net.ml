(* The serving daemon, end to end: HTTP parser units, batcher units,
   and a live multi-domain server on an ephemeral loopback port — the
   72-hostname golden corpus queried over a real socket (including a
   pass that straddles a hot reload), the single-normalization parity
   proof, deterministic 503 shedding, reload failure semantics, and
   seeded hostile-client plans driven against a short-deadline
   server.

   Contract under test (DESIGN.md §11): a served answer is
   byte-identical to in-process application of the same snapshot; the
   server answers, sheds, or closes — it never crashes and never wedges
   a connection past its deadline. *)

module Http = Hoiho_net.Http
module Batcher = Hoiho_net.Batcher
module Server = Hoiho_net.Server
module Prng = Hoiho_util.Prng
module Pipeline = Hoiho.Pipeline
module Learned_io = Hoiho.Learned_io
module Delta = Hoiho.Delta
module Serve = Hoiho_serve.Serve
module City = Hoiho_geodb.City
module Obs = Hoiho_obs.Obs
module Trace = Hoiho_obs.Trace
module Router = Hoiho_itdk.Router
module Dataset = Hoiho_itdk.Dataset
module Psl = Hoiho_psl.Psl

let describe = function Some c -> City.describe c | None -> "-"

(* corpus "expected" strings are "GEOHINT\tCONF" — exactly a /geolocate
   response body minus the newline. Negative rows are "-\t0.000". *)
let is_negative e = String.length e >= 2 && String.sub e 0 2 = "-\t"

let render_conf city conf = Printf.sprintf "%s\t%.3f" (describe city) conf

(* --- fixture: the golden-corpus run, its snapshot, and a saved copy --- *)

let fixture =
  lazy
    (let ds, _truth =
       Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:42 ())
     in
     let p = Pipeline.run ds in
     let model =
       match Learned_io.decode (Learned_io.encode (Learned_io.of_pipeline p)) with
       | Ok m -> m
       | Error e ->
           Alcotest.failf "fixture snapshot did not round-trip: %s"
             (Learned_io.error_to_string e)
     in
     let path = Filename.temp_file "hoiho_net_model" ".hoiho.json" in
     Learned_io.save path model;
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     (p, model, path))

let corpus_path = "golden/corpus.tsv"

let corpus_lines () =
  let ic = open_in_bin corpus_path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  String.split_on_char '\n' raw
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun line ->
         match String.index_opt line '\t' with
         | Some i ->
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
         | None -> Alcotest.failf "golden corpus: malformed line %S" line)

(* --- the test client: Http's renderer, writer and response reader --- *)

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

let error_name = function
  | Http.Closed -> "closed"
  | Http.Timeout -> "timeout"
  | Http.Bad_request m -> "bad request: " ^ m
  | Http.Too_large m -> "too large: " ^ m

(* one request down [fd] and its response off [reader], which keeps
   what follows a response for the next one (keep-alive). A failed
   write is not the verdict: a daemon may answer and close before it
   reads a whole request. A response Http cannot read fails the test. *)
let exchange ?(meth = "GET") ?(body = "") ?(headers = []) fd reader target =
  (try
     Http.write_all fd
       (Http.request ~meth ~body ~headers:(("Host", "t") :: headers) target)
   with Unix.Unix_error _ -> ());
  match Http.read_response reader with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "%s %s: %s" meth target (error_name e)

(* one request on a connection of its own *)
let request ?meth ?body ?(headers = []) port target =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      exchange ?meth ?body
        ~headers:(headers @ [ ("Connection", "close") ])
        fd (Http.reader_of_fd fd) target)

let with_server ?(config = Server.default_config) ?corpus model f =
  let t = Server.start ~config ?corpus model in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t (Server.port t))

(* --- HTTP parser units --- *)

let parse_str ?limits s = Http.read_request ?limits (Http.reader_of_string s)

let test_http_parse_get () =
  match parse_str "GET /geolocate?h=a.b%2Ec&x=1 HTTP/1.1\r\nHost: h\r\n\r\n" with
  | Error _ -> Alcotest.fail "valid GET rejected"
  | Ok req ->
      Alcotest.(check string) "meth" "GET" req.Http.meth;
      Alcotest.(check string) "path" "/geolocate" req.Http.path;
      Alcotest.(check (option string)) "decoded param" (Some "a.b.c")
        (Http.query_param req "h");
      Alcotest.(check (option string)) "second param" (Some "1")
        (Http.query_param req "x");
      Alcotest.(check bool) "1.1 defaults to keep-alive" true
        (Http.keep_alive req)

let test_http_keep_alive_rules () =
  let ka s =
    match parse_str s with
    | Ok req -> Http.keep_alive req
    | Error _ -> Alcotest.fail "request rejected"
  in
  Alcotest.(check bool) "1.1 + close" false
    (ka "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  Alcotest.(check bool) "1.0 default" false (ka "GET / HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "1.0 + keep-alive" true
    (ka "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")

let test_http_rejects () =
  let expect name input check =
    match parse_str input with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e ->
        if not (check e) then Alcotest.failf "%s: wrong error" name
  in
  let is_bad = function Http.Bad_request _ -> true | _ -> false in
  let is_large = function Http.Too_large _ -> true | _ -> false in
  expect "control byte in request line" "GET /a\x01b HTTP/1.1\r\n\r\n" is_bad;
  expect "unknown version" "GET / HTTP/2.0\r\n\r\n" is_bad;
  expect "malformed request line" "GET /\r\n\r\n" is_bad;
  expect "transfer-encoding" "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    is_bad;
  expect "negative content-length" "POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n"
    is_bad;
  expect "malformed content-length" "POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
    is_bad;
  expect "malformed header" "GET / HTTP/1.1\r\nno colon here\r\n\r\n" is_bad;
  expect "clean EOF is Closed" "" (function Http.Closed -> true | _ -> false);
  let tiny = { Http.default_limits with Http.max_line = 16 } in
  (match parse_str ~limits:tiny ("GET /" ^ String.make 64 'a' ^ " HTTP/1.1\r\n\r\n")
   with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "over-long line accepted");
  let few = { Http.default_limits with Http.max_headers = 2 } in
  (match
     parse_str ~limits:few
       "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\n\r\n"
   with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "too many headers accepted");
  let small = { Http.default_limits with Http.max_body = 8 } in
  (match
     parse_str ~limits:small "POST / HTTP/1.1\r\nContent-Length: 64\r\n\r\n"
   with
  | Error (Http.Too_large _) -> ()
  | _ -> Alcotest.fail "oversized body accepted");
  ignore is_large

let test_http_body_and_pipelining () =
  let r =
    Http.reader_of_string
      ("POST /batch HTTP/1.1\r\nContent-Length: 5\r\n\r\nabcde"
     ^ "GET /healthz HTTP/1.1\r\n\r\n")
  in
  (match Http.read_request r with
  | Ok req -> Alcotest.(check string) "body" "abcde" req.Http.body
  | Error _ -> Alcotest.fail "POST with body rejected");
  (match Http.read_request r with
  | Ok req -> Alcotest.(check string) "second request" "/healthz" req.Http.path
  | Error _ -> Alcotest.fail "pipelined request rejected");
  match Http.read_request r with
  | Error Http.Closed -> ()
  | _ -> Alcotest.fail "expected Closed at end of stream"

(* --- the client half: responses on literal bytes --- *)

let parse_resp s = Http.read_response (Http.reader_of_string s)

let test_http_read_response () =
  let ok s =
    match parse_resp s with
    | Ok r -> r
    | Error e -> Alcotest.failf "%S: %s" s (error_name e)
  in
  let r = ok "HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\nok\n" in
  Alcotest.(check (pair int string)) "HTTP/1.0" (200, "ok\n")
    (r.Http.status, r.Http.body);
  let r =
    ok
      "HTTP/1.1 503 Service Unavailable\r\nX-Request-Id:   abc-1  \r\n\
       CONTENT-LENGTH: 0\r\n\r\n"
  in
  Alcotest.(check int) "HTTP/1.1, a reason phrase with spaces" 503
    r.Http.status;
  Alcotest.(check (list (pair string string))) "headers lowercased and trimmed"
    [ ("x-request-id", "abc-1"); ("content-length", "0") ]
    r.Http.headers;
  Alcotest.(check int) "no reason phrase" 204
    (ok "HTTP/1.1 204\r\nContent-Length: 0\r\n\r\n").Http.status;
  (* the default bounds are inclusive: 64 headers, and a line of 8192
     bytes before its LF *)
  (match
     parse_resp
       ("HTTP/1.1 200 " ^ String.make 8178 'K' ^ "\r\n"
       ^ String.concat "" (List.init 63 (Printf.sprintf "X-%d: 1\r\n"))
       ^ "Content-Length: 0\r\n\r\n")
   with
  | Ok r ->
      Alcotest.(check int) "64 headers, an 8192-byte status line" 200
        r.Http.status
  | Error e ->
      Alcotest.failf "64 headers, an 8192-byte status line: %s" (error_name e));
  (* the body is exactly Content-Length bytes; what follows stays in
     the reader for the next call *)
  let reader =
    Http.reader_of_string
      "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\njunk\r\n\r\n"
  in
  (match Http.read_response reader with
  | Ok r -> Alcotest.(check string) "body stops at its length" "ok\n" r.Http.body
  | Error e -> Alcotest.fail (error_name e));
  match Http.read_response reader with
  | Error (Http.Bad_request _) -> ()
  | _ -> Alcotest.fail "the bytes after the body were not left for the next read"

let test_http_response_rejects () =
  let expect name input want =
    match parse_resp input with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e ->
        if error_name e <> want then
          Alcotest.failf "%s: %s, want %s" name (error_name e) want
  in
  let bad what = "bad request: " ^ what in
  (* no body byte follows: reading one would be [Closed] *)
  expect "length over max_body"
    "HTTP/1.1 200 OK\r\nContent-Length: 1048577\r\n\r\n"
    "too large: body too large";
  expect "no content-length" "HTTP/1.1 200 OK\r\n\r\nok\n"
    (bad "response without content-length");
  expect "negative content-length" "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"
    (bad "malformed content-length");
  expect "non-numeric content-length"
    "HTTP/1.1 200 OK\r\nContent-Length: two\r\n\r\nok"
    (bad "malformed content-length");
  expect "transfer-encoding"
    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\nok"
    (bad "transfer-encoding not supported");
  expect "65 headers"
    ("HTTP/1.1 200 OK\r\n"
    ^ String.concat "" (List.init 64 (Printf.sprintf "X-%d: 1\r\n"))
    ^ "Content-Length: 0\r\n\r\n")
    "too large: too many headers";
  expect "a status line of 8193 bytes before its LF"
    ("HTTP/1.1 200 " ^ String.make 8179 'K' ^ "\r\nContent-Length: 0\r\n\r\n")
    "too large: line too long";
  expect "control byte in status line" "HTTP/1.1 200 O\x01K\r\nContent-Length: 0\r\n\r\n"
    (bad "control byte in status line");
  List.iter
    (fun line ->
      expect line (line ^ "\r\nContent-Length: 0\r\n\r\n")
        (bad "malformed status line"))
    [ "HTTP/2 200 OK"; "HTTP/1.1 20 OK"; "HTTP/1.1 2000 OK"; "HTTP/1.1 2x0 OK";
      "ICY 200 OK"; "200 OK" ];
  expect "truncated body" "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"
    "closed";
  expect "no bytes at all" "" "closed"

(* each renderer's output is what the other half's reader parses *)
let test_http_render_round_trip () =
  (match
     parse_str
       (Http.request ~meth:"POST" ~headers:[ ("Host", "t") ] ~body:"a\nb" "/batch")
   with
  | Ok req ->
      Alcotest.(check (list string)) "request" [ "POST"; "/batch"; "a\nb"; "3" ]
        [ req.Http.meth; req.Http.path; req.Http.body;
          Option.value (Http.header req "content-length") ~default:"-" ]
  | Error e -> Alcotest.fail (error_name e));
  (match parse_str (Http.request ~meth:"GET" "/healthz") with
  | Ok req ->
      Alcotest.(check (list (pair string string))) "a GET has no headers" []
        req.Http.headers
  | Error e -> Alcotest.fail (error_name e));
  match
    parse_resp (Http.response ~headers:[ ("Retry-After", "1") ] ~status:503 "busy\n")
  with
  | Ok r ->
      Alcotest.(check (list string)) "response" [ "503"; "busy\n"; "1" ]
        [ string_of_int r.Http.status; r.Http.body;
          Option.value (List.assoc_opt "retry-after" r.Http.headers) ~default:"-" ]
  | Error e -> Alcotest.fail (error_name e)

let test_pct_codec () =
  Alcotest.(check (option string)) "decode" (Some "a /b")
    (Http.pct_decode "a+%2Fb");
  Alcotest.(check (option string)) "malformed escape" None (Http.pct_decode "%g1");
  Alcotest.(check (option string)) "truncated escape" None (Http.pct_decode "ab%2");
  let raw = " FOO.Example.COM. " in
  Alcotest.(check (option string)) "encode o decode = id" (Some raw)
    (Http.pct_decode (Http.pct_encode raw))

(* --- batcher units --- *)

let test_batcher_basic () =
  let b = Batcher.create ~apply:(List.map String.uppercase_ascii) () in
  Fun.protect
    ~finally:(fun () -> Batcher.stop b)
    (fun () ->
      (match Batcher.submit b [ "a"; "b"; "c" ] with
      | Ok answers ->
          Alcotest.(check (list string)) "in order" [ "A"; "B"; "C" ] answers
      | Error _ -> Alcotest.fail "submit failed");
      match Batcher.submit b [] with
      | Ok [] -> ()
      | _ -> Alcotest.fail "empty submit should be Ok []")

let test_batcher_concurrent () =
  let b = Batcher.create ~max_batch:8 ~max_wait_ms:2.0 ~apply:(List.map String.uppercase_ascii) () in
  Fun.protect
    ~finally:(fun () -> Batcher.stop b)
    (fun () ->
      let workers =
        List.init 8 (fun i ->
            Domain.spawn (fun () ->
                let key = Printf.sprintf "host%d" i in
                match Batcher.submit b [ key ] with
                | Ok [ a ] -> a = String.uppercase_ascii key
                | _ -> false))
      in
      let oks = List.map Domain.join workers in
      Alcotest.(check bool) "all concurrent submits answered correctly" true
        (List.for_all Fun.id oks))

let test_batcher_shed () =
  let b = Batcher.create ~max_pending:4 ~apply:(List.map Fun.id) () in
  Fun.protect
    ~finally:(fun () -> Batcher.stop b)
    (fun () ->
      let keys = List.init 20 (fun i -> string_of_int i) in
      match Batcher.submit b keys with
      | Error `Overloaded -> ()
      | Ok _ -> Alcotest.fail "20 keys admitted past max_pending=4"
      | Error _ -> Alcotest.fail "wrong rejection")

let test_batcher_failed_apply_recovers () =
  let b =
    Batcher.create
      ~apply:(fun keys ->
        if List.mem "boom" keys then failwith "apply exploded"
        else List.map String.uppercase_ascii keys)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Batcher.stop b)
    (fun () ->
      (match Batcher.submit b [ "boom" ] with
      | Error `Failed -> ()
      | _ -> Alcotest.fail "raising apply must fail its waiters");
      match Batcher.submit b [ "ok" ] with
      | Ok [ "OK" ] -> ()
      | _ -> Alcotest.fail "batcher did not survive a failed apply")

let test_batcher_stopped () =
  let b = Batcher.create ~apply:(List.map Fun.id) () in
  Batcher.stop b;
  Batcher.stop b;
  match Batcher.submit b [ "x" ] with
  | Error `Stopped -> ()
  | _ -> Alcotest.fail "submit after stop must be `Stopped"

(* --- serve-layer regression: duplicate suffix must raise --- *)

let test_serve_create_rejects_duplicate () =
  let _, model, _ = Lazy.force fixture in
  match model.Learned_io.suffixes with
  | [] -> Alcotest.fail "fixture model has no suffixes"
  | sm :: _ -> (
      let dup =
        { model with Learned_io.suffixes = model.Learned_io.suffixes @ [ sm ] }
      in
      match Serve.create dup with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "Serve.create accepted a duplicate suffix")

(* --- the daemon over a real socket --- *)

let small_config = { Server.default_config with Server.jobs = 2 }

let test_server_basics () =
  let _, model, model_path = Lazy.force fixture in
  with_server
    ~config:{ small_config with Server.model_path = Some model_path }
    model
    (fun t port ->
      Alcotest.(check bool) "ephemeral port bound" true (port > 0);
      let { Http.status; body; _ } = request port "/healthz" in
      Alcotest.(check int) "healthz status" 200 status;
      Alcotest.(check string) "healthz body" "ok\n" body;
      let { Http.status; _ } = request port "/nosuch" in
      Alcotest.(check int) "404" 404 status;
      let { Http.status; _ } = request ~meth:"DELETE" port "/healthz" in
      Alcotest.(check int) "405" 405 status;
      let { Http.status; _ } = request port "/geolocate" in
      Alcotest.(check int) "missing h is 400" 400 status;
      let { Http.status; _ } = request port "/geolocate?h=%20%20" in
      Alcotest.(check int) "whitespace-only hostname is 400" 400 status;
      let oversized = String.make 1500 'a' in
      let { Http.status; _ } = request port ("/geolocate?h=" ^ oversized) in
      Alcotest.(check int) "oversized hostname is 400" 400 status;
      (* double stop via Fun.protect + explicit: idempotent *)
      ignore t)

(* the single-normalization parity contract (DESIGN.md §11): what the
   daemon serves for decorated raw input is byte-identical to what
   in-process Pipeline.geolocate answers for the same raw string *)
let test_boundary_parity () =
  let p, model, _ = Lazy.force fixture in
  let some_host =
    match List.find_opt (fun (_, e) -> not (is_negative e)) (corpus_lines ()) with
    | Some (h, _) -> h
    | None -> Alcotest.fail "corpus has no geolocated hostname"
  in
  let decorated =
    [
      " FOO.Example.COM. ";
      " " ^ String.uppercase_ascii some_host ^ ". ";
      String.uppercase_ascii some_host;
      "\t" ^ some_host ^ " \t";
    ]
  in
  with_server ~config:small_config model (fun _ port ->
      List.iter
        (fun raw ->
          let city, conf = Pipeline.geolocate_conf p raw in
          let expected = render_conf city conf ^ "\n" in
          let { Http.status; body; _ } =
            request port ("/geolocate?h=" ^ Http.pct_encode raw)
          in
          Alcotest.(check int) ("status for " ^ raw) 200 status;
          Alcotest.(check string) ("served = in-process for " ^ raw) expected
            body)
        decorated)

(* the golden corpus over a real socket, one keep-alive connection,
   straddling a hot reload: the same snapshot swapped in mid-pass must
   not change a single answer (and the swap must not error) *)
let test_corpus_over_socket_with_reload () =
  let _, model, model_path = Lazy.force fixture in
  let pinned = corpus_lines () in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length pinned >= 40);
  with_server
    ~config:{ small_config with Server.model_path = Some model_path }
    model
    (fun _ port ->
      let fd = connect port in
      let reader = Http.reader_of_fd fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          let half = List.length pinned / 2 in
          List.iteri
            (fun i (h, expected) ->
              if i = half then begin
                (* hot reload mid-pass, same snapshot: on a separate
                   connection, like a real operator would *)
                let { Http.status; body; _ } = request ~meth:"POST" port "/reload" in
                if status <> 200 then
                  Alcotest.failf "mid-pass reload failed (%d): %s" status body
              end;
              let { Http.status; body; _ } =
                exchange fd reader ("/geolocate?h=" ^ Http.pct_encode h)
              in
              Alcotest.(check int) ("status for " ^ h) 200 status;
              Alcotest.(check string) ("served answer for " ^ h)
                (expected ^ "\n") body)
            pinned))

(* POST /batch: line-aligned answers, !invalid slots, and parity with
   the pinned corpus *)
let test_batch_endpoint () =
  let _, model, _ = Lazy.force fixture in
  let pinned = corpus_lines () in
  let hosts = List.filteri (fun i _ -> i < 10) pinned in
  with_server ~config:small_config model (fun _ port ->
      let body =
        String.concat "\n"
          (List.map fst hosts @ [ "bad..name"; "" ])
        ^ "\n"
      in
      let { Http.status; body = resp; _ } = request ~meth:"POST" ~body port "/batch" in
      Alcotest.(check int) "batch status" 200 status;
      let expected =
        String.concat ""
          (List.map (fun (h, e) -> Printf.sprintf "%s\t%s\n" h e) hosts)
        ^ "bad..name\t!invalid\t0.000\n"
      in
      Alcotest.(check string) "line-aligned batch answers" expected resp;
      let { Http.status; _ } = request ~meth:"POST" ~body:"\n\n" port "/batch" in
      Alcotest.(check int) "empty batch is 400" 400 status)

(* ?min_conf=: the confidence floor is a server-side outcome, not a
   client-side filter — a below-floor answer renders as the distinct
   !low-confidence outcome with its score still shown, and a malformed
   floor is a 400 (distinguishable from any served answer) *)
let test_min_conf () =
  let _, model, _ = Lazy.force fixture in
  let h, expected =
    match List.find_opt (fun (_, e) -> not (is_negative e)) (corpus_lines ()) with
    | Some he -> he
    | None -> Alcotest.fail "corpus has no geolocated hostname"
  in
  let conf_str =
    match String.rindex_opt expected '\t' with
    | Some i -> String.sub expected (i + 1) (String.length expected - i - 1)
    | None -> Alcotest.failf "pinned %S has no confidence column" expected
  in
  with_server ~config:small_config model (fun _ port ->
      let { Http.status; body; _ } =
        request port ("/geolocate?h=" ^ Http.pct_encode h ^ "&min_conf=0")
      in
      Alcotest.(check int) "min_conf=0 status" 200 status;
      Alcotest.(check string) "min_conf=0 keeps the answer" (expected ^ "\n")
        body;
      (* scores are strictly < 1 (Laplace smoothing), so a floor of 1.0
         trips every answer *)
      let { Http.status; body; _ } =
        request port ("/geolocate?h=" ^ Http.pct_encode h ^ "&min_conf=1.0")
      in
      Alcotest.(check int) "min_conf=1 status" 200 status;
      Alcotest.(check string) "below-floor answer is !low-confidence"
        ("!low-confidence\t" ^ conf_str ^ "\n") body;
      let { Http.status; body = resp; _ } =
        request ~meth:"POST" ~body:(h ^ "\n") port "/batch?min_conf=1.0"
      in
      Alcotest.(check int) "batch min_conf status" 200 status;
      Alcotest.(check string) "batch row below floor"
        (h ^ "\t!low-confidence\t" ^ conf_str ^ "\n") resp;
      (* a negative answer is not a claim, so the floor leaves it "-":
         no-geolocation stays distinguishable from low-confidence *)
      let { Http.status; body; _ } =
        request port "/geolocate?h=nosuch.example.invalid&min_conf=0.5"
      in
      Alcotest.(check int) "negative under floor status" 200 status;
      Alcotest.(check string) "negative answer stays -" "-\t0.000\n" body;
      (* /explain takes the same floor on its answer line *)
      let { Http.status; body; _ } =
        request port ("/explain?h=" ^ Http.pct_encode h ^ "&min_conf=1.0")
      in
      Alcotest.(check int) "explain min_conf=1 status" 200 status;
      let first_line = List.hd (String.split_on_char '\n' body) in
      Alcotest.(check string) "explain below floor is !low-confidence"
        (h ^ "\t!low-confidence\t" ^ conf_str) first_line;
      List.iter
        (fun (endpoint, bad) ->
          let { Http.status; _ } =
            request port
              ("/" ^ endpoint ^ "?h=" ^ Http.pct_encode h ^ "&min_conf=" ^ bad)
          in
          Alcotest.(check int) (endpoint ^ " min_conf=" ^ bad ^ " is 400") 400 status)
        (List.map (fun bad -> ("geolocate", bad)) [ "nan"; "2.0"; "-0.5"; "abc"; "" ]
        @ [ ("explain", "banana") ]))

(* deterministic shedding at the socket level: a batch bigger than the
   admission bound must be refused with 503 + Retry-After, and the
   server must keep serving afterwards *)
let test_socket_shed_503 () =
  let _, model, _ = Lazy.force fixture in
  let pinned = corpus_lines () in
  with_server
    ~config:{ small_config with Server.max_pending = 4 }
    model
    (fun _ port ->
      let body =
        String.concat "\n" (List.map fst (List.filteri (fun i _ -> i < 40) pinned))
      in
      let { Http.status; headers; _ } = request ~meth:"POST" ~body port "/batch" in
      Alcotest.(check int) "oversized batch is shed with 503" 503 status;
      Alcotest.(check bool) "Retry-After advertised" true
        (List.mem_assoc "retry-after" headers);
      (* a request inside the bound still works *)
      let h, expected = List.hd pinned in
      let { Http.status; body; _ } = request port ("/geolocate?h=" ^ Http.pct_encode h) in
      Alcotest.(check int) "still serving" 200 status;
      Alcotest.(check string) "still correct" (expected ^ "\n") body)

let test_reload_semantics () =
  let _, model, model_path = Lazy.force fixture in
  let h, expected =
    match List.find_opt (fun (_, e) -> not (is_negative e)) (corpus_lines ()) with
    | Some pinned -> pinned
    | None -> Alcotest.fail "corpus has no geolocated hostname"
  in
  let geolocate port =
    let { Http.status; body; _ } = request port ("/geolocate?h=" ^ Http.pct_encode h) in
    Alcotest.(check int) "geolocate status" 200 status;
    body
  in
  (* a configured path that cannot be read fails loudly and keeps the
     old model serving *)
  with_server
    ~config:{ small_config with Server.model_path = Some "/no/such/model.json" }
    model
    (fun _ port ->
      let { Http.status; _ } = request ~meth:"POST" port "/reload" in
      Alcotest.(check int) "reload of missing file is 500" 500 status;
      Alcotest.(check string) "old model still correct" (expected ^ "\n") (geolocate port));
  (* the configured path reloads fine, and is the only file a reload
     reads: a client naming another snapshot reloads the configured one *)
  let other_path = Filename.temp_file "hoiho_net_empty" ".hoiho.json" in
  Fun.protect ~finally:(fun () -> try Sys.remove other_path with Sys_error _ -> ())
  @@ fun () ->
  Learned_io.save other_path { model with Learned_io.suffixes = [] };
  with_server
    ~config:{ small_config with Server.model_path = Some model_path }
    model
    (fun _ port ->
      let { Http.status; body; _ } =
        request ~meth:"POST" port ("/reload?model=" ^ Http.pct_encode other_path)
      in
      Alcotest.(check int) "configured reload is 200" 200 status;
      Alcotest.(check string) "the configured model is reloaded"
        ("reloaded " ^ model_path ^ "\n") body;
      Alcotest.(check string) "configured model still correct" (expected ^ "\n")
        (geolocate port));
  (* no model path configured anywhere: reload is a 400 *)
  with_server ~config:small_config model (fun _ port ->
      let { Http.status; _ } = request ~meth:"POST" port "/reload" in
      Alcotest.(check int) "unconfigured reload is 400" 400 status)

let test_metrics_and_explain () =
  let _, model, _ = Lazy.force fixture in
  let pinned = corpus_lines () in
  let h, expected =
    match List.find_opt (fun (_, e) -> not (is_negative e)) pinned with
    | Some he -> he
    | None -> Alcotest.fail "corpus has no geolocated hostname"
  in
  with_server ~config:small_config model (fun _ port ->
      let { Http.status; _ } = request port ("/geolocate?h=" ^ Http.pct_encode h) in
      Alcotest.(check int) "warm-up request" 200 status;
      let { Http.status; body; _ } = request port "/metrics" in
      Alcotest.(check int) "metrics status" 200 status;
      Alcotest.(check bool) "exposes net counters" true
        (let needle = "hoiho_net_requests_total" in
         let rec contains i =
           i + String.length needle <= String.length body
           && (String.sub body i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0);
      Alcotest.(check bool) "ends with # EOF" true
        (String.length body >= 6
        && String.sub body (String.length body - 6) 6 = "# EOF\n");
      let { Http.status; body; _ } = request port ("/explain?h=" ^ Http.pct_encode h) in
      Alcotest.(check int) "explain status" 200 status;
      Alcotest.(check bool) "explain carries the answer" true
        (let prefix = Printf.sprintf "%s\t%s\n" h expected in
         String.length body >= String.length prefix
         && String.sub body 0 (String.length prefix) = prefix);
      Alcotest.(check bool) "explain carries the decision trace" true
        (let needle = "apply" in
         let rec contains i =
           i + String.length needle <= String.length body
           && (String.sub body i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0))

(* a rendered decision trace minus its "  (x.xxx ms)" durations *)
let strip_durations body =
  String.split_on_char '\n' body
  |> List.map (fun l ->
         match String.rindex_opt l '(' with
         | Some i when i >= 2 && String.ends_with ~suffix:" ms)" l
                       && String.sub l (i - 2) 2 = "  " ->
             String.sub l 0 (i - 2)
         | _ -> l)
  |> String.concat "\n"

(* Explains run per call (DESIGN.md §10): at jobs 4, four explain
   clients beside a /geolocate client each get exactly what a lone
   explain of the same name gets, durations aside, with its apply tree.
   The process-wide collector gains nothing and loses nothing, and
   trace.spans_recorded never decreases. *)
let test_concurrent_explains () =
  let _, model, _ = Lazy.force fixture in
  let lines = corpus_lines () in
  let hosts = List.filteri (fun i _ -> i < 8) (List.map fst lines) in
  let recorded () = Obs.count (Obs.counter "trace.spans_recorded") in
  with_server ~config:{ small_config with Server.jobs = 4 } model (fun _ port ->
      let explain h =
        let { Http.status; body; _ } = request port ("/explain?h=" ^ Http.pct_encode h) in
        if status <> 200 then Alcotest.failf "/explain?h=%s: status %d" h status;
        strip_durations body
      in
      let lone = List.map (fun h -> (h, explain h)) hosts in
      List.iter
        (fun (h, body) ->
          if not (List.mem "apply" (String.split_on_char '\n' body)) then
            Alcotest.failf "lone explain of %s has no apply tree:\n%s" h body)
        lone;
      (* [clients] explain clients x [rounds], beside one /geolocate
         client; returns the bodies that differ from the lone ones *)
      let storm ~rounds =
        let stop = Atomic.make false in
        let geolocate =
          Domain.spawn (fun () ->
              let rec go = function
                | _ when Atomic.get stop -> ()
                | [] -> go lines
                | (h, _) :: rest ->
                    ignore (request port ("/geolocate?h=" ^ Http.pct_encode h));
                    go rest
              in
              go lines)
        in
        let client k =
          Domain.spawn (fun () ->
              let bad = ref [] and last = ref (recorded ()) in
              for r = 0 to rounds - 1 do
                let h, expected = List.nth lone ((k + r) mod List.length lone) in
                let body = explain h in
                if body <> expected then bad := (h, body) :: !bad;
                let now = recorded () in
                if now < !last then
                  bad := (h, Printf.sprintf "spans_recorded fell %d -> %d" !last now) :: !bad;
                last := now
              done;
              !bad)
        in
        let clients = List.init 4 client in
        let bad = List.concat_map Domain.join clients in
        Atomic.set stop true;
        Domain.join geolocate;
        bad
      in
      let check_storm what bad =
        match bad with
        | [] -> ()
        | (h, body) :: _ ->
            Alcotest.failf "%s: %d explain(s) differ from a lone explain; %s gave:\n%s"
              what (List.length bad) h body
      in
      Trace.clear ();
      check_storm "4 clients x 50" (storm ~rounds:50);
      Alcotest.(check int) "the process-wide collector stays empty" 0
        (List.length (Trace.spans ()));
      Trace.set_enabled true;
      Trace.with_span "marker" (fun () -> ());
      Trace.set_enabled false;
      check_storm "beside a recorded span" (storm ~rounds:5);
      Alcotest.(check (list string)) "a span recorded before the explains survives them"
        [ "marker" ]
        (List.map (fun (sp : Trace.span) -> sp.Trace.name) (Trace.spans ()));
      Trace.clear ())

(* --- POST /observe: incremental relearn over the wire --- *)

(* Epoch-2 events: clone an entire learned suffix group of the fixture
   corpus under the brand-new suffix "newcorp.net" — same router
   locations, same RTTs, same embedded geohint codes, so the relearn
   must learn the clone convention and start answering names nothing in
   the epoch-1 model could. *)
let observe_fixture () =
  let p, model, _ = Lazy.force fixture in
  let ds = p.Pipeline.dataset in
  let source_suffix, probe_host, probe_expected =
    match
      List.find_opt
        (fun (h, e) -> (not (is_negative e)) && Psl.registered_suffix h <> None)
        (corpus_lines ())
    with
    | Some (h, e) -> (Option.get (Psl.registered_suffix h), h, e)
    | None -> Alcotest.fail "corpus has no geolocated hostname"
  in
  let swap h =
    (* "...code1.<source_suffix>" -> "...code1.newcorp.net" *)
    String.sub h 0 (String.length h - String.length source_suffix)
    ^ "newcorp.net"
  in
  let clones =
    ds.Dataset.routers |> Array.to_list
    |> List.filter (fun (r : Router.t) ->
           List.exists
             (fun h -> Psl.registered_suffix h = Some source_suffix)
             r.Router.hostnames)
    |> List.map (fun (r : Router.t) ->
           Router.make (r.Router.id + 100000)
             ~hostnames:(List.map swap r.Router.hostnames)
             ~ping_rtts:r.Router.ping_rtts ~trace_rtts:r.Router.trace_rtts)
  in
  Alcotest.(check bool) "source group is non-trivial" true
    (List.length clones >= 3);
  let events = List.map (fun r -> Delta.Upsert r) clones in
  (* the in-process ground truth for what the daemon must serve after
     the observe: incremental relearn of the same events *)
  let model', _, _ =
    match Delta.relearn_model ~jobs:1 ~model ~corpus:ds events with
    | Ok v -> v
    | Error e -> Alcotest.failf "relearn_model: %s" (Delta.error_to_string e)
  in
  let expected_after =
    let a = Serve.geolocate_uncached_conf (Serve.create model') (swap probe_host) in
    render_conf a.Serve.city a.Serve.confidence
  in
  (* compare the geohint field only: the clone group's confidence is
     recomputed from its own relearned stats, which the corpus entry
     for the source suffix does not pin *)
  let geohint e =
    match String.index_opt e '\t' with Some i -> String.sub e 0 i | None -> e
  in
  Alcotest.(check string)
    "clone convention learned (clone of a geolocated hostname geolocates)"
    (geohint probe_expected) (geohint expected_after);
  (swap probe_host, expected_after, Delta.events_to_string events)

let test_observe_relearn_mid_stream () =
  let p, model, _ = Lazy.force fixture in
  let probe, expected_after, events_json = observe_fixture () in
  let pinned_h, pinned_e = List.hd (corpus_lines ()) in
  with_server ~config:small_config ~corpus:p.Pipeline.dataset model
        (fun _ port ->
          let fd = connect port in
          let reader = Http.reader_of_fd fd in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              let post body = exchange ~meth:"POST" ~body fd reader "/observe" in
              (* before: the epoch-2 name is unknown — and now cached *)
              let { Http.status; body; _ } =
                exchange fd reader ("/geolocate?h=" ^ Http.pct_encode probe)
              in
              Alcotest.(check int) "pre-observe status" 200 status;
              Alcotest.(check string) "epoch-2 name unknown before observe"
                "-\t0.000\n" body;
              (* malformed bodies: typed 400s, connection survives *)
              let { Http.status; _ } = post "not json" in
              Alcotest.(check int) "malformed body is 400" 400 status;
              let { Http.status; body; _ } =
                post {|[{"op":"remove","id":123456789}]|}
              in
              Alcotest.(check int) "unknown router is 400" 400 status;
              Alcotest.(check bool) "400 names the router id" true
                (let needle = "123456789" in
                 let rec contains i =
                   i + String.length needle <= String.length body
                   && (String.sub body i (String.length needle) = needle
                      || contains (i + 1))
                 in
                 contains 0);
              (* the real observe, same connection *)
              let { Http.status; body; _ } = post events_json in
              if status <> 200 then
                Alcotest.failf "observe failed (%d): %s" status body;
              Alcotest.(check bool) "observe reports relearn stats" true
                (String.length body >= 9 && String.sub body 0 9 = "relearned");
              (* after, still the same connection: the swap answered the
                 cached-negative name (the serving-boundary bugfix) *)
              let { Http.status; body; _ } =
                exchange fd reader ("/geolocate?h=" ^ Http.pct_encode probe)
              in
              Alcotest.(check int) "post-observe status" 200 status;
              Alcotest.(check string) "epoch-2 name answers after observe"
                (expected_after ^ "\n") body;
              (* clean suffixes kept serving identically *)
              let { Http.status; body; _ } =
                exchange fd reader ("/geolocate?h=" ^ Http.pct_encode pinned_h)
              in
              Alcotest.(check int) "clean suffix status" 200 status;
              Alcotest.(check string) "clean suffix unchanged"
                (pinned_e ^ "\n") body))

(* A reload that lands while an /observe relearns. The daemon serves
   the fixture snapshot, and its configured model path holds OTHER: that
   snapshot minus the probe hostname's suffix model. The observed events
   dirty every group but that suffix. Whichever swap goes first,
   the probe's suffix model then comes from OTHER (reloaded, or carried
   over clean by a relearn of OTHER), so once both requests return the
   probe answers "-" as OTHER does. The reload is sent at several
   delays spread over the relearn, each against a fresh daemon. *)
let test_reload_during_observe () =
  let p, model, _ = Lazy.force fixture in
  let ds = p.Pipeline.dataset in
  let probe, probe_expected, suffix =
    match
      List.find_map
        (fun (h, e) ->
          if is_negative e then None
          else Option.map (fun s -> (h, e, s)) (Psl.registered_suffix h))
        (corpus_lines ())
    with
    | Some v -> v
    | None -> Alcotest.fail "corpus has no geolocated hostname"
  in
  let other =
    {
      model with
      Learned_io.suffixes =
        List.filter
          (fun (sm : Learned_io.suffix_model) -> sm.Learned_io.suffix <> suffix)
          model.Learned_io.suffixes;
    }
  in
  let other_path = Filename.temp_file "hoiho_net_other" ".hoiho.json" in
  Fun.protect ~finally:(fun () -> try Sys.remove other_path with Sys_error _ -> ())
  @@ fun () ->
  Learned_io.save other_path other;
  (* one new name on one router of every other group, never on a router
     that also has a name under the probe's suffix *)
  let events =
    Dataset.by_suffix ds
    |> List.filter_map (fun (s, routers) ->
           if s = suffix then None
           else
             List.find_opt
               (fun r -> not (List.mem suffix (Router.suffixes r)))
               routers
             |> Option.map (fun (r : Router.t) ->
                    Delta.Add_hostname
                      { router = r.Router.id; hostname = "observed.cr1." ^ s }))
  in
  (match Delta.apply ds events with
  | Ok (_, dirty) ->
      Alcotest.(check bool) "the probe's suffix stays clean" false
        (List.mem suffix dirty);
      Alcotest.(check int) "every other group is dirty"
        (List.length (Dataset.by_suffix ds) - 1)
        (List.length dirty)
  | Error e -> Alcotest.failf "events do not apply: %s" (Delta.error_to_string e));
  let events_json = Delta.events_to_string events in
  let geolocate port =
    let { Http.status; body; _ } = request port ("/geolocate?h=" ^ Http.pct_encode probe) in
    Alcotest.(check int) "geolocate status" 200 status;
    body
  in
  List.iter
    (fun delay_s ->
      with_server
        ~config:{ small_config with Server.model_path = Some other_path }
        ~corpus:ds model
        (fun _ port ->
          Alcotest.(check string) "the served model answers the probe"
            (probe_expected ^ "\n") (geolocate port);
          let observer =
            Domain.spawn (fun () ->
                request ~meth:"POST" ~body:events_json port "/observe")
          in
          Unix.sleepf delay_s;
          let { Http.status; body; _ } = request ~meth:"POST" port "/reload" in
          let { Http.status = observe_status; body = observe_body; _ } =
            Domain.join observer
          in
          if status <> 200 then Alcotest.failf "reload failed (%d): %s" status body;
          if observe_status <> 200 then
            Alcotest.failf "observe failed (%d): %s" observe_status observe_body;
          Alcotest.(check string)
            (Printf.sprintf "reload sent %.0f ms into the observe wins"
               (delay_s *. 1000.0))
            "-\t0.000\n" (geolocate port)))
    [ 0.0; 0.01; 0.02; 0.04; 0.06; 0.09 ]

(* a body nested deeper than Json.max_depth is a 400 naming the limit,
   and the daemon keeps serving *)
let test_observe_too_deep () =
  let p, model, _ = Lazy.force fixture in
  let pinned_h, pinned_e = List.hd (corpus_lines ()) in
  with_server ~config:small_config ~corpus:p.Pipeline.dataset model (fun _ port ->
      let d = Hoiho_util.Json.max_depth + 1 in
      let { Http.status; body; _ } =
        request ~meth:"POST" ~body:(String.make d '[' ^ String.make d ']') port "/observe"
      in
      Alcotest.(check int) "too deep is 400" 400 status;
      Alcotest.(check bool) "400 names the depth limit" true
        (Helpers.contains body
           (Printf.sprintf "expected at most %d nested lists and objects"
              Hoiho_util.Json.max_depth));
      let { Http.status; body; _ } = request port ("/geolocate?h=" ^ Http.pct_encode pinned_h) in
      Alcotest.(check int) "still serving" 200 status;
      Alcotest.(check string) "same answer" (pinned_e ^ "\n") body)

let test_observe_unconfigured () =
  let _, model, _ = Lazy.force fixture in
  with_server ~config:small_config model (fun _ port ->
      let { Http.status; body; _ } =
        request ~meth:"POST" ~body:"[]" port "/observe"
      in
      Alcotest.(check int) "observe without a corpus is 400" 400 status;
      Alcotest.(check bool) "400 explains the missing corpus" true
        (let needle = "corpus" in
         let low = String.lowercase_ascii body in
         let rec contains i =
           i + String.length needle <= String.length low
           && (String.sub low i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0))

(* --- chaos: hostile clients against a short-deadline server ---

   The daemon's adversity is hostile clients, not dirty datasets. A
   plan is pure data — the bytes one client writes, how it paces them,
   and whether it waits for an answer — generated from a seed, so the
   plans stay deterministic and the contract testable: the server must
   answer, shed, or close, never crash, never wedge a connection past
   its deadline. *)

type net_fault =
  | Slow_loris
      (* a well-formed request dribbled a few bytes at a time with
         pauses: each read beats the socket timeout, only the
         per-request deadline can end it *)
  | Torn_request  (* a prefix of a valid request, then an abrupt close *)
  | Oversized_hostname
      (* a syntactically valid request whose hostname exceeds the regex
         engine's subject bound — must 400, not crash or scan *)
  | Control_bytes  (* raw control bytes embedded in the request line *)
  | Garbage  (* bytes that are not HTTP at all *)

let all_net_faults =
  [ Slow_loris; Torn_request; Oversized_hostname; Control_bytes; Garbage ]

let net_fault_name = function
  | Slow_loris -> "slow_loris"
  | Torn_request -> "torn_request"
  | Oversized_hostname -> "oversized_hostname"
  | Control_bytes -> "control_bytes"
  | Garbage -> "garbage"

type net_plan = {
  fault : net_fault;
  payload : string;
  chunk : int;  (* write granularity, >= 1 *)
  pause_s : float;  (* pause between chunks *)
  expect_response : bool;
      (* whether the client waits to read a response (a torn or garbage
         client just disconnects) *)
}

let valid_get h =
  Printf.sprintf
    "GET /geolocate?h=%s HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n" h

let net_plan rng fault =
  match fault with
  | Slow_loris ->
      (* each chunk lands well inside the socket timeout; only the
         per-request deadline can end this client *)
      {
        fault;
        payload = valid_get "100ge1-4.core2.fra12.he.net";
        chunk = 1 + Prng.int rng 3;
        pause_s = 0.01 +. Prng.float rng 0.02;
        expect_response = true;
      }
  | Torn_request ->
      let full = valid_get "100ge12-2.core2.tok2.he.net" in
      let cut = 1 + Prng.int rng (String.length full - 1) in
      {
        fault;
        payload = String.sub full 0 cut;
        chunk = String.length full;
        pause_s = 0.0;
        expect_response = false;
      }
  | Oversized_hostname ->
      (* past Engine.max_subject_len (1024) but inside the request-line
         bound: must be rejected at the boundary with a 400 *)
      {
        fault;
        payload = valid_get (String.make (1200 + Prng.int rng 2048) 'a');
        chunk = 512;
        pause_s = 0.0;
        expect_response = true;
      }
  | Control_bytes ->
      (* a raw C0 byte in the request line (never CR/LF, which would
         just split the line): parser must answer 400 *)
      let bad = String.make 1 (Char.chr (Prng.int rng 9)) in
      {
        fault;
        payload = valid_get ("100ge1-4" ^ bad ^ ".core2.fra12.he.net");
        chunk = 256;
        pause_s = 0.0;
        expect_response = true;
      }
  | Garbage ->
      let len = 32 + Prng.int rng 224 in
      let payload = String.init len (fun _ -> Char.chr (Prng.int rng 256)) in
      { fault; payload; chunk = 64; pause_s = 0.0; expect_response = false }

(* [n] plans cycling through [all_net_faults] in order, so every class
   is covered whenever [n >= 5]; same seed, same plans, byte for byte *)
let net_plans ?(n = 25) seed =
  let rng = Prng.create seed in
  let k = List.length all_net_faults in
  let rec build i acc =
    if i >= n then List.rev acc
    else build (i + 1) (net_plan rng (List.nth all_net_faults (i mod k)) :: acc)
  in
  build 0 []

let run_plan port plan =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      let n = String.length plan.payload in
      let rec send off =
        if off < n then
          let len = min plan.chunk (n - off) in
          match Unix.write_substring fd plan.payload off len with
          | w ->
              if plan.pause_s > 0.0 then Unix.sleepf plan.pause_s;
              send (off + w)
          | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
              (* the server already gave up on us — that is an allowed
                 outcome for every fault class *)
              ()
          | exception Unix.Unix_error (EINTR, _, _) -> send off
      in
      send 0;
      if plan.expect_response then
        match (plan.fault, Http.read_response (Http.reader_of_fd fd)) with
        | (Oversized_hostname | Control_bytes), Ok { Http.status; _ } ->
            Alcotest.(check int)
              (net_fault_name plan.fault ^ " is rejected with 400")
              400 status
        (* fast enough to finish inside the deadline → 200; too slow →
           408 or a silent close. Never a hang, never a 5xx. *)
        | Slow_loris, (Ok { Http.status = 200 | 408; _ } | Error Http.Closed) -> ()
        | Slow_loris, Ok { Http.status; _ } ->
            Alcotest.failf "slow_loris: unexpected status %d" status
        | (Oversized_hostname | Control_bytes | Slow_loris), Error e ->
            Alcotest.failf "%s: %s" (net_fault_name plan.fault) (error_name e)
        | (Torn_request | Garbage), _ -> ())

let test_chaos_clients () =
  let _, model, model_path = Lazy.force fixture in
  let pinned = corpus_lines () in
  let h, expected = List.hd pinned in
  let config =
    {
      small_config with
      Server.model_path = Some model_path;
      request_timeout_s = 0.4;
    }
  in
  with_server ~config model (fun _ port ->
      let plans = net_plans ~n:25 7 in
      Alcotest.(check bool) "every fault class planned" true
        (List.for_all
           (fun f -> List.exists (fun p -> p.fault = f) plans)
           all_net_faults);
      List.iteri
        (fun i plan ->
          (* mid-reload traffic: swap the model while hostile clients
             are mid-connection *)
          if i mod 7 = 3 then begin
            let { Http.status; _ } = request ~meth:"POST" port "/reload" in
            Alcotest.(check int) "reload under fire" 200 status
          end;
          run_plan port plan)
        plans;
      (* determinism of the plan stream itself *)
      Alcotest.(check bool) "plans are deterministic" true
        (net_plans ~n:25 7 = plans);
      (* after all that, the server still answers, correctly *)
      let { Http.status; body; _ } = request port ("/geolocate?h=" ^ Http.pct_encode h) in
      Alcotest.(check int) "alive after chaos" 200 status;
      Alcotest.(check string) "still correct after chaos" (expected ^ "\n") body)

(* the request deadline is exact: a client that sends a request line,
   then one header byte every 0.9 s, is answered 408 one deadline after
   it began, not once a read that was already waiting at the deadline
   ends on its own *)
let test_trickled_headers_deadline () =
  let _, model, _ = Lazy.force fixture in
  with_server ~config:{ small_config with Server.request_timeout_s = 1.0 } model
    (fun _ port ->
      let t0 = Unix.gettimeofday () in
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Http.write_all fd "GET /healthz HTTP/1.1\r\n";
          let header = "Host: t\r\n\r\n" in
          (* one byte each time 0.9 s pass with no answer *)
          let rec trickle i =
            match Unix.select [ fd ] [] [] 0.9 with
            | [], _, _ when i < String.length header ->
                (try Http.write_all fd (String.make 1 header.[i])
                 with Unix.Unix_error _ -> ());
                trickle (i + 1)
            | _ -> ()
          in
          trickle 0;
          let status =
            match Http.read_response (Http.reader_of_fd fd) with
            | Ok r -> r.Http.status
            | Error e -> Alcotest.failf "trickled request: %s" (error_name e)
          in
          let took = Unix.gettimeofday () -. t0 in
          Alcotest.(check int) "trickled request times out" 408 status;
          if took > 1.4 then
            Alcotest.failf "408 came %.2f s after connecting (deadline 1 s, bound 1.4 s)" took))

(* --- health, request ids, debug endpoints, access log --- *)

module Health = Hoiho_obs.Health
module Json = Hoiho_util.Json

let contains haystack needle =
  let nn = String.length needle and hn = String.length haystack in
  let rec go i =
    i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* satellite: the OpenMetrics exposition advertises its version *)
let test_metrics_content_type () =
  let _, model, _ = Lazy.force fixture in
  with_server ~config:small_config model (fun _ port ->
      let { Http.status; headers; _ } = request port "/metrics" in
      Alcotest.(check int) "metrics status" 200 status;
      Alcotest.(check (option string)) "openmetrics content type"
        (Some "text/plain; version=0.0.4; charset=utf-8")
        (List.assoc_opt "content-type" headers))

let test_request_id () =
  let _, model, _ = Lazy.force fixture in
  with_server ~config:small_config model (fun _ port ->
      (* a sane client id is echoed verbatim *)
      let rid ?headers target =
        List.assoc_opt "x-request-id" (request ?headers port target).Http.headers
      in
      Alcotest.(check (option string)) "client id echoed" (Some "abc-123")
        (rid ~headers:[ ("X-Request-Id", "abc-123") ] "/healthz");
      (* no client id: the daemon mints one *)
      (match rid "/healthz" with
      | Some rid ->
          Alcotest.(check bool) "generated id is hoiho-*" true
            (String.length rid > 6 && String.sub rid 0 6 = "hoiho-")
      | None -> Alcotest.fail "response without X-Request-Id");
      (* an insane id (control bytes / oversized) is replaced, not echoed *)
      (match rid ~headers:[ ("X-Request-Id", String.make 300 'x') ] "/healthz" with
      | Some rid ->
          Alcotest.(check bool) "oversized client id replaced" true
            (String.sub rid 0 6 = "hoiho-")
      | None -> Alcotest.fail "response without X-Request-Id");
      (* errors carry the id too *)
      Alcotest.(check (option string)) "404 still carries the id" (Some "err-7")
        (rid ~headers:[ ("X-Request-Id", "err-7") ] "/nosuch"))

(* the chaos-driven health state machine over a live socket:
   ok -> degraded -> failing (503 naming the burned objective) -> ok
   again once the bad samples age out of the window *)
let test_healthz_transitions () =
  let _, model, _ = Lazy.force fixture in
  let config =
    {
      small_config with
      Server.slo =
        {
          Hoiho_net.Slo.objectives =
            [ { Health.metric = "latency_p99_ms"; max_value = 50.0; fail_ratio = 3.0 } ];
          bucket_ms = 100.0;
          nbuckets = 10;
        };
    }
  in
  with_server ~config model (fun t port ->
      let { Http.status; body; _ } = request port "/healthz" in
      Alcotest.(check int) "clean server is healthy" 200 status;
      Alcotest.(check string) "clean body" "ok\n" body;
      (* inject latency inside the budget's degraded band: burn 1.5 *)
      let m = Server.monitor t in
      let inject latency =
        for _ = 1 to 40 do
          Health.record_request m ~now_ms:(Obs.now_ms ()) ~latency_ms:latency
            ~status:200 ~shed:false
        done
      in
      inject 75.0;
      let { Http.status; body; _ } = request port "/healthz" in
      Alcotest.(check int) "degraded is still 200" 200 status;
      Alcotest.(check bool) "degraded body" true (contains body "degraded:");
      Alcotest.(check bool) "degraded names the objective" true
        (contains body "latency_p99_ms");
      (* now burn far past fail_ratio *)
      inject 1000.0;
      let { Http.status; body; _ } = request port "/healthz" in
      Alcotest.(check int) "failing is 503" 503 status;
      Alcotest.(check bool) "failing body" true (contains body "failing:");
      Alcotest.(check bool) "failing names the objective" true
        (contains body "latency_p99_ms");
      (* /debug/slo agrees while failing *)
      let { Http.status; body; _ } = request port "/debug/slo" in
      Alcotest.(check int) "debug/slo status" 200 status;
      Alcotest.(check bool) "debug/slo reports failing" true
        (contains body "\"state\":\"failing\"");
      (* recovery: the bad samples age out of the 1 s span on their own *)
      Unix.sleepf 1.35;
      let { Http.status; body; _ } = request port "/healthz" in
      Alcotest.(check int) "recovered" 200 status;
      Alcotest.(check string) "recovered body" "ok\n" body)

let test_debug_endpoints_strict_json () =
  let _, model, _ = Lazy.force fixture in
  let pinned = corpus_lines () in
  let h, _ = List.hd pinned in
  with_server ~config:small_config model (fun _ port ->
      let { Http.status; _ } = request port ("/geolocate?h=" ^ Http.pct_encode h) in
      Alcotest.(check int) "warm-up request" 200 status;
      let check_json target keys =
        let { Http.status; body; headers; _ } = request port target in
        Alcotest.(check int) (target ^ " status") 200 status;
        Alcotest.(check (option string)) (target ^ " content type")
          (Some "application/json")
          (List.assoc_opt "content-type" headers);
        match Json.parse body with
        | Error e -> Alcotest.failf "%s is not strict JSON: %s" target e
        | Ok json ->
            List.iter
              (fun k ->
                if Json.member k json = None then
                  Alcotest.failf "%s lacks %S" target k)
              keys;
            json
      in
      let slo =
        check_json "/debug/slo" [ "state"; "reasons"; "objectives"; "measurements" ]
      in
      (match Json.member "state" slo with
      | Some (Json.String "ok") -> ()
      | _ -> Alcotest.fail "idle server's /debug/slo state is not ok");
      (* every default objective row carries metric/max/fail_ratio *)
      (match Json.member "objectives" slo with
      | Some (Json.List (_ :: _ as rows)) ->
          List.iter
            (fun row ->
              List.iter
                (fun k ->
                  if Json.member k row = None then
                    Alcotest.failf "objective row lacks %S" k)
                [ "metric"; "max"; "fail_ratio"; "value"; "burn" ])
            rows
      | _ -> Alcotest.fail "/debug/slo objectives missing or empty");
      let windows =
        check_json "/debug/windows"
          [
            "bucket_ms"; "nbuckets"; "windows"; "expected_calibration";
            "observed_calibration";
          ]
      in
      (* the served request above is visible in the latency window *)
      match Json.member "windows" windows with
      | Some w -> (
          match Json.member "latency_ms" w with
          | Some lat -> (
              match Json.member "n" lat with
              | Some (Json.Int n) ->
                  Alcotest.(check bool) "latency window saw traffic" true (n > 0)
              | _ -> Alcotest.fail "latency window lacks n")
          | None -> Alcotest.fail "windows lacks latency_ms")
      | None -> Alcotest.fail "windows section missing")

(* the model ships a calibration profile (format v3), so the live
   daemon's drift plumbing is armed end to end *)
let test_expected_calibration_served () =
  let _, model, _ = Lazy.force fixture in
  Alcotest.(check bool) "fixture model carries a calibration profile" true
    (model.Learned_io.calibration <> None);
  with_server ~config:small_config model (fun _ port ->
      let body = (request port "/debug/windows").Http.body in
      Alcotest.(check bool) "expected profile exposed, not null" true
        (not (contains body "\"expected_calibration\":null")))

let test_access_log_over_the_wire () =
  let _, model, _ = Lazy.force fixture in
  let pinned = corpus_lines () in
  let h, _ = List.hd pinned in
  let path = Filename.temp_file "hoiho_net_access" ".log" in
  let config = { small_config with Server.access_log = Some path } in
  with_server ~config model (fun _ port ->
      let { Http.status; _ } = request port ("/geolocate?h=" ^ Http.pct_encode h) in
      Alcotest.(check int) "geolocate" 200 status;
      let { Http.status; _ } = request port "/healthz" in
      Alcotest.(check int) "healthz" 200 status;
      let { Http.status; _ } = request port "/nosuch" in
      Alcotest.(check int) "404" 404 status);
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' raw)
  in
  Alcotest.(check int) "one line per request" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "access-log line not strict JSON: %s" e
      | Ok json ->
          List.iter
            (fun k ->
              if Json.member k json = None then
                Alcotest.failf "access-log line lacks %S" k)
            [
              "request_id"; "endpoint"; "status"; "latency_us"; "batch";
              "cache_hit"; "confidence"; "shed"; "degraded";
            ])
    lines;
  Alcotest.(check bool) "geolocate line present" true
    (contains raw "\"endpoint\":\"GET /geolocate\"");
  Alcotest.(check bool) "404 recorded" true (contains raw "\"status\":404");
  (* an unwritable access log fails startup loudly, not silently *)
  let bad =
    { small_config with Server.access_log = Some "/nonexistent-dir/x/a.log" }
  in
  match Server.start ~config:bad model with
  | exception Failure _ -> ()
  | t ->
      Server.stop t;
      Alcotest.fail "unwritable access log did not fail startup"

let suites =
  [
    ( "net.http",
      [
        Helpers.tc "parses a GET with query" test_http_parse_get;
        Helpers.tc "keep-alive rules" test_http_keep_alive_rules;
        Helpers.tc "rejects malformed and oversized input" test_http_rejects;
        Helpers.tc "bodies and pipelining" test_http_body_and_pipelining;
        Helpers.tc "reads responses" test_http_read_response;
        Helpers.tc "response reader refuses malformed and oversized input"
          test_http_response_rejects;
        Helpers.tc "renderers round-trip through the readers"
          test_http_render_round_trip;
        Helpers.tc "percent codec" test_pct_codec;
      ] );
    ( "net.batcher",
      [
        Helpers.tc "answers in order" test_batcher_basic;
        Helpers.tc "concurrent submitters" test_batcher_concurrent;
        Helpers.tc "sheds past the admission bound" test_batcher_shed;
        Helpers.tc "survives a failing apply" test_batcher_failed_apply_recovers;
        Helpers.tc "stop is terminal and idempotent" test_batcher_stopped;
      ] );
    ( "net.server",
      [
        Helpers.tc "duplicate suffix model is rejected"
          test_serve_create_rejects_duplicate;
        Helpers.tc "basics: healthz, 404, 405, boundary 400s"
          test_server_basics;
        Helpers.tc "single-normalization parity" test_boundary_parity;
        Helpers.tc "golden corpus over a socket, straddling a reload"
          test_corpus_over_socket_with_reload;
        Helpers.tc "batch endpoint" test_batch_endpoint;
        Helpers.tc "min_conf floor over the wire" test_min_conf;
        Helpers.tc "deterministic 503 shedding" test_socket_shed_503;
        Helpers.tc "reload semantics" test_reload_semantics;
        Helpers.tc "metrics and explain over the wire"
          test_metrics_and_explain;
        Helpers.tc "concurrent explains match lone ones at jobs 4"
          test_concurrent_explains;
        Helpers.tc "observe relearns mid-stream on a keep-alive connection"
          test_observe_relearn_mid_stream;
        Helpers.tc "observe without a corpus" test_observe_unconfigured;
        Helpers.tc "observe refuses a body nested too deep" test_observe_too_deep;
        Helpers.tc "reload during an observe relearn is kept"
          test_reload_during_observe;
        Helpers.tc "chaos clients" test_chaos_clients;
        Helpers.tc "trickled headers get 408 at the deadline"
          test_trickled_headers_deadline;
        Helpers.tc "metrics content type" test_metrics_content_type;
        Helpers.tc "request ids echoed and generated" test_request_id;
        Helpers.tc "healthz transitions ok->degraded->failing->ok"
          test_healthz_transitions;
        Helpers.tc "debug endpoints are strict JSON"
          test_debug_endpoints_strict_json;
        Helpers.tc "expected calibration profile served"
          test_expected_calibration_served;
        Helpers.tc "access log over the wire" test_access_log_over_the_wire;
      ] );
  ]
