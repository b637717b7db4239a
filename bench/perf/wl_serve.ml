(* The serve workloads: the real `hoiho serve` daemon under an open-loop
   load of GET /geolocate from one process with 2 domains and 2
   keep-alive connections.

   serve-zipf draws names from a Zipf distribution (s = 1.0) over a
   seeded shuffle of the hostname list at a fixed 1200 req/s. The
   65,536-entry LRU absorbs most lookups, so HTTP, batching and the
   socket dominate: this is where gains in net, the batcher and the
   cache show.

   serve-observe starts the daemon with --corpus and draws names
   uniformly at 700 req/s while five POST /observe bodies arrive, one
   in the middle of each fifth of the timed phase. The working set is
   larger than the cache, and relearning plus cache invalidation compete
   with read tails. The daemon runs three accept domains here: each
   serves one keep-alive connection at a time, so with two the
   observer's connection would wait behind the load until it ended.

   Every served body is checked against the answer key. *)

open Common
module Serve = Hoiho_serve.Serve
module Learned_io = Hoiho.Learned_io
module Delta = Hoiho.Delta
module Http = Hoiho_net.Http
module Batcher = Hoiho_net.Batcher
module Strutil = Hoiho_util.Strutil
module Prng = Hoiho_util.Prng
module Engine = Hoiho_rx.Engine
module Io = Hoiho_itdk.Io

let span = Spans.span

type shape = Zipf | Uniform

(* request index -> host index *)
let draw shape rng ~hosts ~n =
  let m = Array.length hosts in
  match shape with
  | Uniform -> Array.init n (fun _ -> Prng.int rng m)
  | Zipf ->
      let perm = Array.init m Fun.id in
      Prng.shuffle rng perm;
      let cdf = Array.make m 0.0 in
      let acc = ref 0.0 in
      for k = 0 to m - 1 do
        acc := !acc +. (1.0 /. float_of_int (k + 1));
        cdf.(k) <- !acc
      done;
      let sample () =
        let u = Prng.float rng !acc in
        let lo = ref 0 and hi = ref (m - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) > u then hi := mid else lo := mid + 1
        done;
        perm.(!lo)
      in
      Array.init n (fun _ -> sample ())

(* set-up: spawn the daemon [reps] times, keep the last one *)
let start_daemon (p : params) args ~reps =
  let times =
    Array.init reps (fun k ->
        let d, t = Daemon.spawn ~cli:p.cli args in
        if k < reps - 1 && not (Daemon.stop d) then harness_error "daemon did not stop cleanly";
        (d, t))
  in
  (fst times.(reps - 1), median (Array.map snd times))

let delta before after name = Daemon.counter after name -. Daemon.counter before name

(* the latency limit of the max-rate search. On this 2-core host the
   daemon's p99 sits at a few ms from about 1000 req/s up, so a tighter
   limit would fail every rate and measure nothing. *)
let p99_limit_ms = 10.0

(* one probe of the max-rate search: does the daemon keep up at [rate]
   with p99 within the limit, no failure, and 99% of requests answered
   by the end of the probe *)
let probe_passes d shape ~hosts ~expect_host rng ~rate ~seconds =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let names = draw shape rng ~hosts ~n in
  let t0, o =
    Client.open_loop ~drain:1.0 ~port:d.Daemon.port ~rate ~n
      ~req:(fun i -> Client.geolocate_request hosts.(names.(i)))
      ~expect:(fun i body -> expect_host names.(i) body)
      ()
  in
  let t_end = t0 +. seconds in
  let in_time = Array.fold_left (fun k at -> if at <= t_end then k + 1 else k) 0 o.Client.answered_at in
  Unix.sleepf 0.3;
  Client.bad o = 0
  && percentile (Client.latencies o) 0.99 <= p99_limit_ms
  && float_of_int in_time >= 0.99 *. float_of_int n

(* geometric bisection over [1000, 32000] req/s; the highest rate that
   passed, 0 when none did *)
let max_rps d shape ~hosts ~expect_host rng ~probes ~seconds =
  let lo = ref 1000.0 and hi = ref 32000.0 and best = ref 0.0 in
  for _ = 1 to probes do
    let mid = sqrt (!lo *. !hi) in
    if probe_passes d shape ~hosts ~expect_host rng ~rate:mid ~seconds then begin
      best := mid;
      lo := mid
    end
    else hi := mid
  done;
  !best

(* the daemon's request path in process: parse, boundary, the batcher
   fed from 2 domains with Serve.apply_batch behind it, render *)
let replay_net l model ~hosts ~names ~expect_host =
  let n = Array.length names in
  let reqs = Array.map (fun h -> Client.geolocate_request hosts.(h)) names in
  let serve = Serve.create model in
  Spans.start ();
  let raw =
    span "net.parse" (fun () ->
        Array.map
          (fun s ->
            match Http.read_request (Http.reader_of_string s) with
            | Ok r -> Option.value (Http.query_param r "h") ~default:""
            | Error _ -> "")
          reqs)
  in
  let keys =
    span "net.boundary" (fun () ->
        Array.map
          (fun r ->
            let k = Strutil.normalize_hostname r in
            if k = "" || Strutil.has_empty_dns_label k || String.length k > Engine.max_subject_len then None
            else Some k)
          raw)
  in
  let answers = Array.make n None in
  let weighted_apply_ns = Atomic.make 0 and submit_ns = Atomic.make 0 in
  span "net.batcher" (fun () ->
      let parent = Spans.current_parent () in
      let active = Atomic.make 0 in
      let b =
        Batcher.create ~max_batch:64 ~max_wait_ms:1.0 ~max_pending:1024
          ~more_hint:(fun () -> Atomic.get active)
          ~apply:(fun ks ->
            let t0 = now_s () in
            let r =
              span ~parent "serve.apply_batch" (fun () ->
                  List.map snd (Serve.apply_batch ~jobs:2 ~normalized:true serve ks))
            in
            let dt = int_of_float ((now_s () -. t0) *. 1e9) in
            ignore (Atomic.fetch_and_add weighted_apply_ns (dt * List.length ks));
            r)
          ()
      in
      let submitter c =
        Domain.spawn (fun () ->
            Array.iteri
              (fun i k ->
                if i mod 2 = c then
                  match k with
                  | None -> ()
                  | Some k ->
                      Atomic.incr active;
                      let t0 = now_s () in
                      (match Batcher.submit b [ k ] with
                      | Ok [ a ] -> answers.(i) <- Some a
                      | _ -> ());
                      ignore (Atomic.fetch_and_add submit_ns (int_of_float ((now_s () -. t0) *. 1e9)));
                      Atomic.decr active)
              keys)
      in
      List.iter Domain.join [ submitter 0; submitter 1 ];
      Batcher.stop b);
  let bodies =
    span "net.render" (fun () ->
        Array.map
          (function
            | Some a -> Http.response ~status:200 (body_of_answer (answer_of_serve a))
            | None -> Http.response ~status:503 "overloaded, retry later\n")
          answers)
  in
  let spans = Spans.stop () in
  let bad = ref 0 in
  Array.iteri
    (fun i a ->
      match a with
      | Some a ->
          let body = body_of_answer (answer_of_serve a) in
          if not (expect_host names.(i) body && String.ends_with ~suffix:("\r\n" ^ body) bodies.(i)) then
            incr bad
      | None -> incr bad)
    answers;
  check_many l ~n ~bad:!bad "in-process request replay gave wrong answers";
  let sum = Spans.summarize spans in
  let us name count = ratio (Spans.total_s sum name *. 1e6) (float_of_int count) in
  let batches = Spans.count sum "serve.apply_batch" in
  let metrics =
    [
      ("net.parse_us", us "net.parse" n);
      ("net.boundary_us", us "net.boundary" n);
      ( "net.queue_wait_us",
        float_of_int (Atomic.get submit_ns - Atomic.get weighted_apply_ns) /. 1e3 /. float_of_int n );
      ("serve.apply_batch_us", us "serve.apply_batch" batches);
      ("net.render_us", us "net.render" n);
    ]
  in
  (metrics, spans)

(* the /observe path in process: decode, relearn, rebuild *)
let replay_observe l (p : params) model ~bodies ~jobs ~hosts ~names =
  let corpus = Io.load (Inputs.corpus_file p.inputs) in
  let serve = Serve.create model in
  (* a warm cache, so rebuild has entries to invalidate *)
  let warm = Array.to_list (Array.map (fun h -> hosts.(h)) names) in
  ignore (Serve.apply_batch ~jobs:2 serve warm);
  Spans.start ();
  let dirty = ref 0 in
  let final =
    List.fold_left
      (fun (serve, model, corpus) body ->
        let events =
          match span "core.delta.decode" (fun () -> Delta.events_of_string body) with
          | Ok e -> e
          | Error e -> harness_error "observe body does not decode: %s" e
        in
        match span "core.delta.relearn" (fun () -> Delta.relearn_model ~jobs ~model ~corpus events) with
        | Error e -> harness_error "relearn: %s" (Delta.error_to_string e)
        | Ok (model', corpus', stats) ->
            dirty := !dirty + List.length stats.Delta.dirty;
            let serve' = span "serve.rebuild" (fun () -> Serve.rebuild ~dirty:stats.Delta.dirty serve model') in
            (serve', model', corpus'))
      (serve, model, corpus) bodies
  in
  let spans = Spans.stop () in
  let _, model_final, _ = final in
  check l
    (Inputs.model_digest model_final = Inputs.meta_string p.inputs "relearned_digest")
    "in-process relearn sequence differs from the generator's";
  let sum = Spans.summarize spans in
  let k = float_of_int (List.length bodies) in
  let per_ms name = Spans.total_s sum name *. 1000.0 /. k in
  ( [
      ("core.delta.dirty_groups", float_of_int !dirty /. k);
      ("core.delta.decode_ms", per_ms "core.delta.decode");
      ("core.delta.relearn_ms", per_ms "core.delta.relearn");
      ("serve.rebuild_ms", per_ms "serve.rebuild");
    ],
    spans )

(* after the last observe the daemon must answer like a batch learn of
   the final corpus *)
let check_probes l r probes =
  let rec chunks = function
    | [] -> []
    | l ->
        let c = List.filteri (fun i _ -> i < 500) l and rest = List.filteri (fun i _ -> i >= 500) l in
        c :: chunks rest
  in
  List.iter
    (fun chunk ->
      let body = String.concat "\n" (List.map fst chunk) in
      let status, resp = Client.exchange r (Client.request_bytes ~body "POST" "/batch") in
      if status <> 200 then check_many l ~n:(List.length chunk) ~bad:(List.length chunk) "probe /batch refused"
      else
        let lines = List.filter (fun s -> s <> "") (String.split_on_char '\n' resp) in
        let bad =
          if List.length lines <> List.length chunk then List.length chunk
          else
            List.fold_left2
              (fun bad (host, want) line ->
                if line ^ "\n" = host ^ "\t" ^ body_of_answer want then bad else bad + 1)
              0 chunk lines
        in
        check_many l ~n:(List.length chunk) ~bad "probe answers after the last observe differ from a batch learn")
    (chunks probes)

let run shape (p : params) =
  let l = ledger () in
  let model_path = Inputs.model_file p.inputs in
  let hosts = Inputs.hosts p.inputs in
  let expected = Array.map body_of_answer (Inputs.answers p.inputs) in
  let observing = shape = Uniform in
  (* while observes land, a name under a dirtied suffix may answer as
     any model of the sequence does *)
  let alts = Hashtbl.create 1024 in
  if observing then
    Hashtbl.iter (fun i l -> Hashtbl.replace alts i (List.map body_of_answer l)) (Inputs.alternatives p.inputs);
  let expect_host h body =
    body = expected.(h) || match Hashtbl.find_opt alts h with Some l -> List.mem body l | None -> false
  in
  let jobs = if observing then 3 else 2 in
  let args =
    [ "--model"; model_path; "--port"; "0"; "--jobs"; string_of_int jobs ]
    @ if observing then [ "--corpus"; Inputs.corpus_file p.inputs ] else []
  in
  (* a daemon without --corpus starts in milliseconds, so it can be
     started more often for a steadier median *)
  let d, setup_s = start_daemon p args ~reps:(if p.smoke then 1 else if observing then 3 else 21) in
  (* about 30% of the daemon's capacity for each traffic shape: the
     median serve.max_rps of five traced runs on a 2-vCPU host was 4090
     req/s for Zipf draws and 2380 req/s for uniform ones with --corpus
     (README.md) *)
  let rate =
    match (shape, p.smoke) with
    | _, true -> 300.0
    | Zipf, false -> 1200.0
    | Uniform, false -> 700.0
  in
  let n = int_of_float (rate *. p.seconds) in
  let rng = Prng.create (p.seed lxor (if observing then 0x0b5e else 0x21bf)) in
  let names = draw shape rng ~hosts ~n in
  let bodies = if observing then Inputs.observe_bodies p.inputs else [] in
  let observe_ms = ref [] in
  let observer = if observing then Some (Client.reader (Client.connect d.Daemon.port)) else None in
  let post_observes t0 =
    match observer with
    | None -> ()
    | Some r ->
        List.iteri
          (fun k body ->
            let due = t0 +. ((float_of_int k +. 0.5) *. p.seconds /. float_of_int (List.length bodies)) in
            let wait = due -. now_s () in
            if wait > 0.0 then Unix.sleepf wait;
            let t = now_s () in
            let status, resp = Client.exchange r (Client.request_bytes ~body "POST" "/observe") in
            observe_ms := (now_s () -. t) *. 1000.0 :: !observe_ms;
            check l
              (status = 200 && String.length resp > 10 && String.sub resp 0 10 = "relearned:")
              "POST /observe %d answered %d %S" (k + 1) status resp)
          bodies
  in
  let before = Daemon.scrape d in
  let rss0 = Daemon.status_kb d "VmRSS" in
  let _, o =
    Client.open_loop ~during:post_observes ~port:d.Daemon.port ~rate ~n
      ~req:(fun i -> Client.geolocate_request hosts.(names.(i)))
      ~expect:(fun i body -> expect_host names.(i) body)
      ()
  in
  let after = Daemon.scrape d in
  let rss1 = Daemon.status_kb d "VmRSS" in
  let hwm_kb = Daemon.status_kb d "VmHWM" in
  check_many l ~n ~bad:(Client.bad o) (Printf.sprintf "%d of %d served answers wrong or missing" (Client.bad o) n);
  (match observer with
  | Some r ->
      check_probes l r (Inputs.probes p.inputs);
      check l
        (Inputs.meta_string p.inputs "relearned_digest" = Inputs.meta_string p.inputs "final_digest")
        "incremental relearn of the observe stream differs from a batch learn of the final corpus";
      Unix.close r.Client.fd
  | None -> ());
  let lat = Client.latencies o in
  let late = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list o.Client.late_ms)) in
  let late_p99 = if Array.length late = 0 then nan else percentile late 0.99 in
  let timed =
    [
      ("setup_s", setup_s);
      ( "peak_rss_mb",
        match hwm_kb with Some kb -> float_of_int kb /. 1024.0 | None -> harness_error "no VmHWM for the daemon" );
      ("op_p50_ms", median lat);
      ("op_tail_ms", tail lat);
    ]
  in
  let hits = delta before after "serve.cache_hits" and misses = delta before after "serve.cache_misses" in
  let daemon_layers =
    [
      ("serve.cache_hit_ratio", ratio hits (hits +. misses));
      ("net.batch_fill", ratio (delta before after "net.batch_hostnames") (delta before after "net.batches"));
      ("net.shed_ratio", ratio (delta before after "net.shed") (float_of_int n));
      ( "daemon.rss_growth_kb_per_10k_req",
        match (rss0, rss1) with
        | Some a, Some b -> float_of_int (b - a) /. (float_of_int n /. 10000.0)
        | _ -> 0.0 );
      ("client.late_p99_ms", late_p99);
    ]
    @
    if observing then
      [
        ("serve.cache_invalidated", delta before after "serve.cache_invalidated");
        ("serve.observe_ms", median (Array.of_list !observe_ms));
      ]
    else []
  in
  let layer, spans =
    if not p.trace then ([], [])
    else begin
      let model =
        match Learned_io.load model_path with
        | Ok m -> m
        | Error e -> harness_error "%s: %s" model_path (Learned_io.error_to_string e)
      in
      let replay_names = Array.sub names 0 (min n 20000) in
      let probe_rng = Prng.create (p.seed lxor 0x9a7e) in
      let rps =
        max_rps d shape ~hosts ~expect_host probe_rng ~probes:(if p.smoke then 2 else 7)
          ~seconds:(if p.smoke then 0.3 else 1.0)
      in
      let m, s =
        if observing then replay_observe l p model ~bodies ~jobs ~hosts ~names:replay_names
        else replay_net l model ~hosts ~names:replay_names ~expect_host
      in
      (("serve.max_rps", rps) :: m, s)
    end
  in
  if not (Daemon.stop d) then harness_error "daemon did not shut down cleanly on SIGTERM";
  { metrics = timed @ daemon_layers @ layer; ledger = l; spans }
