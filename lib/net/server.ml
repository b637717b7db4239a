module Serve = Hoiho_serve.Serve
module Learned_io = Hoiho.Learned_io
module Delta = Hoiho.Delta
module Dataset = Hoiho_itdk.Dataset
module City = Hoiho_geodb.City
module Strutil = Hoiho_util.Strutil
module Engine = Hoiho_rx.Engine
module Pool = Hoiho_obs.Pool
module Obs = Hoiho_obs.Obs
module Health = Hoiho_obs.Health
module Window = Hoiho_obs.Window
module Histo = Hoiho_obs.Histo
module Json = Hoiho_util.Json

let c_conns = Obs.counter "net.connections"
let c_requests = Obs.counter "net.requests"
let c_ok = Obs.counter "net.responses_2xx"
let c_client_err = Obs.counter "net.responses_4xx"
let c_server_err = Obs.counter "net.responses_5xx"
let c_unavailable = Obs.counter "net.responses_503"
let c_invalid_hostnames = Obs.counter "net.invalid_hostnames"
let c_timeouts = Obs.counter "net.request_timeouts"
let c_reloads = Obs.counter "net.reloads"
let c_reload_failures = Obs.counter "net.reload_failures"
let c_observes = Obs.counter "net.observes"
let c_observe_events = Obs.counter "net.observe_events"
let c_observe_failures = Obs.counter "net.observe_failures"
let h_request = Obs.histogram "net.request_ms"

(* level gauges (set, not high-water): the current evaluated health
   state (0 ok / 1 degraded / 2 failing) and the served-confidence
   drift vs the model's stored calibration profile, in parts-per-million
   (gauges are ints; 1e6 keeps three decimals of the [0,1] distance) *)
let g_health_state = Obs.gauge "health.state"
let g_drift = Obs.gauge "health.calibration_drift_ppm"

type config = {
  host : string;
  port : int;
  jobs : int;
  max_pending : int;
  request_timeout_s : float;
  model_path : string option;
  slo : Slo.t;
  access_log : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    jobs = Pool.default_jobs ();
    max_pending = 1024;
    request_timeout_s = 5.0;
    model_path = None;
    slo = Slo.default;
    access_log = None;
  }

type t = {
  cfg : config;
  listener : Unix.file_descr;
  bound_port : int;
  serve : Serve.t Atomic.t;
  batcher : Serve.answer Batcher.t;
  monitor : Health.monitor;
  access : Access_log.t option;
  (* the housekeeper's cached evaluation, read per request for the
     access-log degraded flag so the hot path never sorts a window *)
  health_state : int Atomic.t;
  rid_counter : int Atomic.t;
  stop_flag : bool Atomic.t;
  reload_flag : bool Atomic.t;
  (* producers currently inside a request handler; the batcher's
     coalescing hint *)
  active : int Atomic.t;
  (* serializes model swaps (see [swap]); [serve] is written and
     [corpus] read or written only under it *)
  swap_mutex : Mutex.t;
  mutable corpus : Dataset.t option;
  mutable accepters : unit Domain.t list;
  mutable housekeeper : unit Domain.t option;
  mutable stopped : bool;
  stop_mutex : Mutex.t;
}

(* --- the input boundary (DESIGN.md §11) ---

   Raw bytes from the network are normalized exactly once, here, and
   guarded before they reach the serve layer: an empty or
   dot-malformed name would make label-positional methods misbehave,
   and a subject over the regex engine's bound can only ever miss.
   Everything downstream runs with [~normalized:true]. *)

let boundary raw =
  let key = Strutil.normalize_hostname raw in
  if
    key = ""
    || Strutil.has_empty_dns_label key
    || String.length key > Engine.max_subject_len
  then begin
    Obs.incr c_invalid_hostnames;
    Error `Invalid
  end
  else Ok key

let describe = function Some c -> City.describe c | None -> "-"

(* --- response vocabulary ---

   Every answered hostname renders as "GEOHINT\tCONF" with CONF to
   three decimals; negative answers are "-\t0.000", never a missing
   field, so /batch rows always have the same column count. With
   ?min_conf=X a *positive* answer scoring below X renders as the
   distinct "!low-confidence\tCONF" outcome (the score is still
   disclosed: the client asked for a floor, not secrecy). Negative
   answers stay "-": the floor suppresses uncertain claims, and "no
   geolocation" is not a claim — the CLI's --min-conf makes the same
   distinction. *)

let render_answer ?min_conf (a : Serve.answer) =
  match (a.Serve.city, min_conf) with
  | Some _, Some floor when a.Serve.confidence < floor ->
      Printf.sprintf "!low-confidence\t%.3f" a.Serve.confidence
  | _ -> Printf.sprintf "%s\t%.3f" (describe a.Serve.city) a.Serve.confidence

(* absent -> no thresholding; unparsable or out-of-range -> client
   error, distinguishable from a low-confidence answer *)
let min_conf_param req =
  match Http.query_param req "min_conf" with
  | None -> Ok None
  | Some raw -> (
      match float_of_string_opt raw with
      | Some f when f >= 0.0 && f <= 1.0 -> Ok (Some f)
      | _ -> Error `Bad_min_conf)

(* --- responses --- *)

let count_status status =
  Obs.incr c_requests;
  if status >= 200 && status < 300 then Obs.incr c_ok
  else if status = 503 then begin
    Obs.incr c_unavailable;
    Obs.incr c_server_err
  end
  else if status >= 500 then Obs.incr c_server_err
  else if status >= 400 then Obs.incr c_client_err

(* --- per-request context ---

   One mutable record rides through dispatch so the response writer,
   the health monitor, and the access log see one consistent story:
   which request id went out, what status, whether admission shed it,
   how many hostnames it carried, and what the answer's confidence
   was. Allocated per request; fields default to the non-lookup
   shape. *)

type req_ctx = {
  rid : string;
  endpoint : string;
  mutable status : int;
  mutable shed : bool;
  mutable batch : int;
  mutable cache_hit : bool;
  mutable confidence : float option;
}

(* a client-supplied X-Request-Id is echoed when it is sane: non-empty,
   bounded, visible ASCII only (it goes back out in a header and into
   log lines — no CR/LF smuggling, no control bytes) *)
let sane_rid s =
  let n = String.length s in
  n > 0 && n <= 128
  && String.for_all (fun c -> c > ' ' && Char.code c < 0x7f) s

let fresh_rid t =
  Printf.sprintf "hoiho-%d-%d" (Unix.getpid ())
    (Atomic.fetch_and_add t.rid_counter 1)

let rid_of_request t req =
  match Http.header req "x-request-id" with
  | Some rid when sane_rid rid -> rid
  | _ -> fresh_rid t

let make_ctx ~rid ~endpoint =
  {
    rid;
    endpoint;
    status = 0;
    shed = false;
    batch = 0;
    cache_hit = false;
    confidence = None;
  }

(* every response — handlers and parse-error paths alike — goes out
   through here: the status is counted once, recorded in the ctx for
   the monitor/access log, and the request id is echoed back *)
let respond ctx fd ?(headers = []) ?content_type ~status body =
  count_status status;
  ctx.status <- status;
  Http.write_all fd
    (Http.response
       ~headers:(("X-Request-Id", ctx.rid) :: headers)
       ?content_type ~status body)

(* --- handlers --- *)

let bad_min_conf ctx fd =
  respond ctx fd ~status:400 "invalid min_conf (want a float in [0,1])\n"

(* the query of the one-hostname endpoints: a valid ?min_conf= and an
   ?h= that passes the boundary *)
let with_hostname ctx fd req k =
  match (min_conf_param req, Http.query_param req "h") with
  | Error `Bad_min_conf, _ -> bad_min_conf ctx fd
  | Ok _, None -> respond ctx fd ~status:400 "missing query parameter h\n"
  | Ok min_conf, Some raw -> (
      match boundary raw with
      | Error `Invalid -> respond ctx fd ~status:400 "invalid hostname\n"
      | Ok key -> k min_conf key)

let handle_geolocate t ctx fd req =
  with_hostname ctx fd req @@ fun min_conf key ->
  ctx.batch <- 1;
  (* read-only probe, before submit: the answer below may itself
     populate the cache *)
  ctx.cache_hit <- Serve.cached (Atomic.get t.serve) key;
  match Batcher.submit t.batcher [ key ] with
  | Ok [ answer ] ->
      ctx.confidence <- Some answer.Serve.confidence;
      respond ctx fd ~status:200 (render_answer ?min_conf answer ^ "\n")
  | Ok _ -> respond ctx fd ~status:500 "internal error\n"
  | Error `Overloaded ->
      ctx.shed <- true;
      respond ctx fd
        ~headers:[ ("Retry-After", "1") ]
        ~status:503 "overloaded, retry later\n"
  | Error (`Stopped | `Failed) -> respond ctx fd ~status:503 "shutting down\n"

let handle_batch t ctx fd req =
  match min_conf_param req with
  | Error `Bad_min_conf -> bad_min_conf ctx fd
  | Ok min_conf ->
  let lines =
    String.split_on_char '\n' req.Http.body
    |> List.map (fun l ->
           let l = String.trim l in
           l)
    |> List.filter (fun l -> l <> "")
  in
  if lines = [] then respond ctx fd ~status:400 "empty batch\n"
  else begin
    (* boundary-normalize every line once; invalid lines keep their
       slot so the response aligns line-for-line with the request *)
    let keyed = List.map (fun raw -> (raw, boundary raw)) lines in
    let keys = List.filter_map (fun (_, k) -> Result.to_option k) keyed in
    ctx.batch <- List.length keys;
    ctx.cache_hit <-
      keys <> []
      && List.for_all (Serve.cached (Atomic.get t.serve)) keys;
    let submitted =
      if keys = [] then Ok [] else Batcher.submit t.batcher keys
    in
    match submitted with
    | Error `Overloaded ->
        ctx.shed <- true;
        respond ctx fd
          ~headers:[ ("Retry-After", "1") ]
          ~status:503 "overloaded, retry later\n"
    | Error (`Stopped | `Failed) -> respond ctx fd ~status:503 "shutting down\n"
    | Ok answers ->
        let buf = Buffer.create 4096 in
        let rec render answers = function
          | [] -> ()
          | (raw, Error `Invalid) :: rest ->
              (* same column count as answered rows: the 0.000 is the
                 uniform negative-confidence placeholder *)
              Buffer.add_string buf (raw ^ "\t!invalid\t0.000\n");
              render answers rest
          | (raw, Ok _) :: rest -> (
              match answers with
              | a :: answers ->
                  Buffer.add_string buf
                    (raw ^ "\t" ^ render_answer ?min_conf a ^ "\n");
                  render answers rest
              | [] -> ())
        in
        render answers keyed;
        respond ctx fd ~status:200 (Buffer.contents buf)
  end

let handle_explain t ctx fd req =
  with_hostname ctx fd req @@ fun min_conf key ->
  let answer, trace = Serve.explain (Atomic.get t.serve) key in
  ctx.confidence <- Some answer.Serve.confidence;
  respond ctx fd ~status:200
    (Printf.sprintf "%s\t%s\n\n%s" key (render_answer ?min_conf answer) trace)

let handle_metrics ctx fd =
  (* the Prometheus text-exposition content type — scrapers content-
     negotiate on it; the previous application/openmetrics-text value
     declared the stricter OpenMetrics dialect this exposition does not
     fully implement *)
  respond ctx fd
    ~content_type:"text/plain; version=0.0.4; charset=utf-8"
    ~status:200
    (Obs.to_openmetrics (Obs.snapshot ()))

(* The one model swap, behind /reload, SIGHUP and /observe alike.
   [next] maps the serving model and the retained corpus to the server
   and corpus to install, under [swap_mutex]: a reload that lands while
   an /observe relearns waits for it and then replaces its result, and
   an /observe never lays a relearn of the old model over a reloaded
   one. Lookups never take the lock; they keep serving the old model
   until the one atomic store. The drift baseline follows the serving
   model: its answers are judged against ITS expected profile. *)
let swap t next =
  Mutex.lock t.swap_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.swap_mutex) @@ fun () ->
  match next (Atomic.get t.serve) t.corpus with
  | Error _ as e -> e
  | Ok (serve, corpus, v) ->
      t.corpus <- corpus;
      Atomic.set t.serve serve;
      Health.set_expected_profile t.monitor
        (Serve.model serve).Learned_io.calibration;
      Ok v

let do_reload t path =
  match Learned_io.load path with
  | Error e ->
      Obs.incr c_reload_failures;
      Error (Learned_io.error_to_string e)
  | Ok model ->
      (* build the new server (dictionary resolution, suffix index,
         fresh LRU) before taking the lock: a reload never holds up an
         /observe with a decode, and no cache entry learned under the
         old model survives. The retained corpus stays. *)
      let serve = Serve.create model in
      let swapped = swap t (fun _ corpus -> Ok (serve, corpus, ())) in
      Obs.incr c_reloads;
      swapped

let handle_reload t ctx fd =
  match t.cfg.model_path with
  | None -> respond ctx fd ~status:400 "no model path configured\n"
  | Some path -> (
      match do_reload t path with
      | Ok () -> respond ctx fd ~status:200 ("reloaded " ^ path ^ "\n")
      | Error msg -> respond ctx fd ~status:500 ("reload failed: " ^ msg ^ "\n"))

(* POST /observe: the streaming half of the serving story. A body of
   Delta wire events is applied to the retained corpus, only the dirty
   suffix groups are relearned against the serving model's own
   dictionary, and the result is swapped in with the warm cache carried
   over minus the dirty suffixes' entries (Serve.rebuild). The relearn
   runs inside [swap], so it sees the (corpus, model) pair the last
   swap left, and no other swap lands until it is installed. *)
let handle_observe t ctx fd req =
  let relearn serve = function
    | None -> Error "no corpus configured (start with --corpus)"
    | Some corpus -> (
        match Delta.events_of_string req.Http.body with
        | Error msg -> Error ("bad events: " ^ msg)
        | Ok events -> (
            match
              Delta.relearn_model ~jobs:t.cfg.jobs ~model:(Serve.model serve)
                ~corpus events
            with
            | Error e -> Error ("bad events: " ^ Delta.error_to_string e)
            | Ok (model', corpus', stats) ->
                Ok
                  ( Serve.rebuild ~dirty:stats.Delta.dirty serve model',
                    Some corpus',
                    stats )))
  in
  match swap t relearn with
  | Error msg ->
      Obs.incr c_observe_failures;
      respond ctx fd ~status:400 (msg ^ "\n")
  | Ok stats ->
      Obs.incr c_observes;
      Obs.add c_observe_events stats.Delta.events;
      respond ctx fd ~status:200
        (Printf.sprintf
           "relearned: %d events, %d dirty suffixes, %d groups relearned, \
            %d reused\n"
           stats.Delta.events
           (List.length stats.Delta.dirty)
           stats.Delta.groups_relearned stats.Delta.groups_reused)

(* --- health & debug endpoints (DESIGN.md §14) --- *)

(* the one evaluation of the current window, for /healthz, /debug/slo
   and the housekeeper alike. The probes evaluate afresh (the
   housekeeper's cached state could be a tick stale — a load balancer
   polling /healthz deserves the current window); every evaluation
   refreshes the cache so the access-log degraded flag tracks the
   latest one. *)
let evaluate_health t =
  let measurements = Health.measurements t.monitor ~now_ms:(Obs.now_ms ()) in
  let state =
    Health.evaluate ~objectives:(Health.objectives t.monitor) ~measurements
  in
  Atomic.set t.health_state (Health.state_to_int state);
  (state, measurements)

let handle_healthz t ctx fd =
  match fst (evaluate_health t) with
  | Health.Ok -> respond ctx fd ~status:200 "ok\n"
  | Health.Degraded _ as s ->
      (* degraded is a warning, not an outage: load balancers keep
         routing (200), operators see the reasons in the body *)
      respond ctx fd ~status:200 (Health.render s ^ "\n")
  | Health.Failing _ as s -> respond ctx fd ~status:503 (Health.render s ^ "\n")

let json_of_window w ~now_ms =
  let s = Window.stats w ~now_ms in
  Json.Obj
    [
      ("n", Json.Int s.Histo.n);
      ( "rate_per_s",
        Json.Float (float_of_int s.Histo.n /. (Window.span_ms w /. 1000.0)) );
      ("p50", Json.Float s.Histo.p50);
      ("p95", Json.Float s.Histo.p95);
      ("p99", Json.Float s.Histo.p99);
      ("max", Json.Float s.Histo.max);
      ("sum", Json.Float s.Histo.sum);
    ]

let json_of_profile masses =
  Json.List (List.map (fun m -> Json.Float m) (Array.to_list masses))

let handle_debug_slo t ctx fd =
  let state, measurements = evaluate_health t in
  let objectives =
    List.map
      (fun (o : Health.objective) ->
        let value = List.assoc_opt o.Health.metric measurements in
        Json.Obj
          ([
             ("metric", Json.String o.Health.metric);
             ("max", Json.Float o.Health.max_value);
             ("fail_ratio", Json.Float o.Health.fail_ratio);
           ]
          @
          match value with
          | None -> [ ("value", Json.Null); ("burn", Json.Null) ]
          | Some v ->
              [
                ("value", Json.Float v);
                ("burn", Json.Float (v /. o.Health.max_value));
              ]))
      (Health.objectives t.monitor)
  in
  let body =
    Json.to_string
      (Json.Obj
         [
           ("state", Json.String (Health.state_label state));
           ( "reasons",
             Json.List
               (List.map
                  (fun r -> Json.String r)
                  (Health.state_reasons state)) );
           ("objectives", Json.List objectives);
           ( "measurements",
             Json.Obj
               (List.map (fun (k, v) -> (k, Json.Float v)) measurements) );
         ])
  in
  respond ctx fd ~content_type:"application/json" ~status:200 (body ^ "\n")

let handle_debug_windows t ctx fd =
  let now_ms = Obs.now_ms () in
  let m = t.monitor in
  let window w = json_of_window w ~now_ms in
  let body =
    Json.to_string
      (Json.Obj
         [
           ( "bucket_ms",
             Json.Float (Window.bucket_ms (Health.latency_window m)) );
           ("nbuckets", Json.Int (Window.nbuckets (Health.latency_window m)));
           ( "windows",
             Json.Obj
               [
                 ("latency_ms", window (Health.latency_window m));
                 ("errors", window (Health.error_window m));
                 ("shed", window (Health.shed_window m));
                 ("confidence", window (Health.confidence_window m));
               ] );
           ( "expected_calibration",
             match Health.expected_profile m with
             | Some p -> json_of_profile p
             | None -> Json.Null );
           ( "observed_calibration",
             json_of_profile
               (Window.deciles (Health.confidence_window m) ~now_ms) );
         ])
  in
  respond ctx fd ~content_type:"application/json" ~status:200 (body ^ "\n")

let dispatch t ctx fd (req : Http.request) =
  match (req.Http.meth, req.Http.path) with
  | "GET", "/healthz" -> handle_healthz t ctx fd
  | "GET", "/metrics" -> handle_metrics ctx fd
  | "GET", "/debug/slo" -> handle_debug_slo t ctx fd
  | "GET", "/debug/windows" -> handle_debug_windows t ctx fd
  | "GET", "/geolocate" -> handle_geolocate t ctx fd req
  | "GET", "/explain" -> handle_explain t ctx fd req
  | "POST", "/batch" -> handle_batch t ctx fd req
  | "POST", "/reload" -> handle_reload t ctx fd
  | "POST", "/observe" -> handle_observe t ctx fd req
  | ("GET" | "POST" | "HEAD"), _ -> respond ctx fd ~status:404 "not found\n"
  | _ -> respond ctx fd ~status:405 "method not allowed\n"

(* --- per-connection loop --- *)

let handle_connection t fd =
  Obs.incr c_conns;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.request_timeout_s
   with Unix.Unix_error _ -> ());
  let limits =
    { Http.default_limits with Http.deadline_ms = t.cfg.request_timeout_s *. 1000.0 }
  in
  let reader = Http.reader_of_fd fd in
  (* one observation point for every response this connection produces:
     cumulative histogram, sliding health windows, and the access log
     all see the same (status, latency, flags) story *)
  let finish ?(histo = true) ctx t0 =
    let dt_ms = Obs.now_ms () -. t0 in
    (* parse-error responses keep the cumulative histogram's historical
       meaning (dispatch time of parsed requests only) but still land
       in the health windows and the log: a garbage storm must move
       error_rate *)
    if histo then Obs.observe h_request dt_ms;
    let now_ms = Obs.now_ms () in
    (* observability endpoints are excluded from the health windows:
       /healthz answering 503 *because* the daemon is failing must not
       itself count as a service error, or probing a failing daemon
       feeds the error window and pins it in Failing forever *)
    let observability =
      match ctx.endpoint with
      | "GET /healthz" | "GET /metrics" | "GET /debug/slo"
      | "GET /debug/windows" ->
          true
      | _ -> false
    in
    if not observability then
      Health.record_request t.monitor ~now_ms ~latency_ms:dt_ms
        ~status:ctx.status ~shed:ctx.shed;
    match t.access with
    | None -> ()
    | Some log ->
        Access_log.log log
          {
            Access_log.request_id = ctx.rid;
            endpoint = ctx.endpoint;
            status = ctx.status;
            latency_us = int_of_float (dt_ms *. 1000.0);
            batch = ctx.batch;
            cache_hit = ctx.cache_hit;
            confidence = ctx.confidence;
            shed = ctx.shed;
            degraded = Atomic.get t.health_state > 0;
          }
  in
  let rec serve_requests () =
    if not (Atomic.get t.stop_flag) then begin
      let t0 = Obs.now_ms () in
      match Http.read_request ~limits reader with
      (* a keep-alive connection that closes, or stays silent to the
         deadline, between requests ends without a response: no
         request failed, so nothing is recorded *)
      | Error (Http.Closed | Http.Idle) -> ()
      | Error Http.Timeout ->
          (* part of a request arrived; answering 408 on a dead
             drip-feed is best-effort *)
          Obs.incr c_timeouts;
          let ctx = make_ctx ~rid:(fresh_rid t) ~endpoint:"-" in
          (try respond ctx fd ~status:408 "request timeout\n" with _ -> ());
          finish ~histo:false ctx t0
      | Error (Http.Bad_request msg) ->
          let ctx = make_ctx ~rid:(fresh_rid t) ~endpoint:"-" in
          (try respond ctx fd ~status:400 (msg ^ "\n") with _ -> ());
          finish ~histo:false ctx t0
      | Error (Http.Too_large msg) ->
          let ctx = make_ctx ~rid:(fresh_rid t) ~endpoint:"-" in
          (try respond ctx fd ~status:413 (msg ^ "\n") with _ -> ());
          finish ~histo:false ctx t0
      | Ok req ->
          let again =
            Atomic.incr t.active;
            Fun.protect
              ~finally:(fun () -> Atomic.decr t.active)
              (fun () ->
                let t0 = Obs.now_ms () in
                let ctx =
                  make_ctx ~rid:(rid_of_request t req)
                    ~endpoint:(req.Http.meth ^ " " ^ req.Http.path)
                in
                let ok =
                  match dispatch t ctx fd req with
                  | () -> true
                  | exception _ ->
                      (try respond ctx fd ~status:500 "internal error\n"
                       with _ -> ());
                      false
                in
                finish ctx t0;
                ok && Http.keep_alive req)
          in
          if again then serve_requests ()
    end
  in
  (try serve_requests () with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- accept loop (one per domain) --- *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select [ t.listener ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> (
          (* the listener is non-blocking: several domains may race
             for the same readiness; losers get EAGAIN and re-select *)
          match Unix.accept ~cloexec:true t.listener with
          | fd, _ -> handle_connection t fd
          | exception
              Unix.Unix_error
                ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
              ())
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | exception Unix.Unix_error (EBADF, _, _) -> Atomic.set t.stop_flag true);
      loop ()
    end
  in
  loop ()

(* --- housekeeping (reload requests from signals, health gauges) --- *)

(* periodic re-evaluation keeps the cached state and the exported
   gauges fresh even when nobody polls /healthz: an idle-but-failing
   daemon still shows health.state=2 on the next /metrics scrape *)
let update_health_gauges t =
  let state, measurements = evaluate_health t in
  Obs.set_gauge g_health_state (Health.state_to_int state);
  match List.assoc_opt "calibration_drift" measurements with
  | Some d -> Obs.set_gauge g_drift (int_of_float (d *. 1e6))
  | None -> ()

let housekeeping_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      if Atomic.compare_and_set t.reload_flag true false then
        (match t.cfg.model_path with
        | Some path -> ignore (do_reload t path)
        | None -> Obs.incr c_reload_failures);
      update_health_gauges t;
      Unix.sleepf 0.05;
      loop ()
    end
  in
  loop ()

(* --- lifecycle --- *)

let start ?(config = default_config) ?corpus model =
  (* a peer that disconnects mid-response must surface as EPIPE on the
     write, not kill the process with the default SIGPIPE disposition *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listener = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.set_nonblock listener;
     Unix.bind listener
       (ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen listener 128
   with e ->
     (try Unix.close listener with _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listener with
    | ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let serve = Atomic.make (Serve.create model) in
  let active = Atomic.make 0 in
  let monitor =
    Health.create_monitor ~objectives:config.slo.Slo.objectives
      ~bucket_ms:config.slo.Slo.bucket_ms ~nbuckets:config.slo.Slo.nbuckets
  in
  (* drift baseline: the served model's stored expected profile (None
     for pre-v3 snapshots — the drift measurement simply stays off) *)
  Health.set_expected_profile monitor model.Learned_io.calibration;
  let access =
    match config.access_log with
    | None -> None
    | Some path -> (
        match Access_log.create path with
        | Ok log -> Some log
        | Error msg ->
            (* an unwritable log path fails the start, like an
               unbindable address: the operator asked for a log *)
            (try Unix.close listener with _ -> ());
            failwith (Printf.sprintf "access log %s: %s" path msg))
  in
  let batcher =
    Batcher.create ~max_pending:config.max_pending
      ~more_hint:(fun () -> Atomic.get active)
      ~apply:(fun keys ->
        let answers =
          List.map snd
            (Serve.apply_batch ~jobs:config.jobs ~normalized:true
               (Atomic.get serve) keys)
        in
        (* every served answer's confidence — cached or computed — feeds
           the drift window at one point, whatever endpoint asked *)
        let now_ms = Obs.now_ms () in
        List.iter
          (fun (a : Serve.answer) ->
            Health.record_confidence monitor ~now_ms a.Serve.confidence)
          answers;
        answers)
      ()
  in
  let t =
    {
      cfg = config;
      listener;
      bound_port;
      serve;
      batcher;
      monitor;
      access;
      health_state = Atomic.make 0;
      rid_counter = Atomic.make 0;
      stop_flag = Atomic.make false;
      reload_flag = Atomic.make false;
      active;
      swap_mutex = Mutex.create ();
      corpus;
      accepters = [];
      housekeeper = None;
      stopped = false;
      stop_mutex = Mutex.create ();
    }
  in
  t.accepters <-
    List.init (max 1 config.jobs) (fun _ ->
        Domain.spawn (fun () -> accept_loop t));
  t.housekeeper <- Some (Domain.spawn (fun () -> housekeeping_loop t));
  t

let port t = t.bound_port

let monitor t = t.monitor
let request_reload t = Atomic.set t.reload_flag true

let stop t =
  Mutex.lock t.stop_mutex;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_mutex;
  if first then begin
    Atomic.set t.stop_flag true;
    List.iter Domain.join t.accepters;
    t.accepters <- [];
    (match t.housekeeper with
    | Some d ->
        Domain.join d;
        t.housekeeper <- None
    | None -> ());
    Batcher.stop t.batcher;
    (match t.access with Some log -> Access_log.close log | None -> ());
    try Unix.close t.listener with Unix.Unix_error _ -> ()
  end
