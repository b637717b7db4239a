(* hoiho — learn geographic naming conventions from router hostnames.

   Subcommands:
     generate    synthesize an ITDK-style dataset and write it to a file
     learn       run the five-stage pipeline and report naming conventions
     save-model  learn, then snapshot the learned model to a file
     apply       serve geolocations from a saved model (no re-learning)
     serve       the same serving path as a network daemon (HTTP)
     relearn     apply observation events to a corpus, relearn dirty suffixes
     diff-model  diff two model snapshots (conventions, geohints, support)
     explain     trace one hostname's geolocation decision step by step
     geolocate   apply learned conventions to hostnames (re-learns; see apply)
     compare     evaluate Hoiho vs HLOC/DRoP/undns on validation suffixes
     lookup      consult the reference location dictionary *)

open Cmdliner
module Trace = Hoiho_obs.Trace

(* --- tracing plumbing shared by learn / apply --- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run and write it to $(docv) as \
           Chrome trace-event JSON, loadable in Perfetto or \
           chrome://tracing.")

(* collect the spans of [f], then export them; the write happens even
   when [f] raises so a failed run still leaves a trace to look at *)
let with_trace trace_out f =
  match trace_out with
  | None -> f ()
  | Some path ->
      let result, spans, dropped =
        Trace.collect (fun () ->
            match f () with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      in
      Hoiho_obs.Obs.write_file_atomic path (Trace.to_chrome_json ~dropped spans);
      Printf.eprintf "hoiho: wrote %d span(s) to %s%s\n" (List.length spans) path
        (match dropped with
        | 0 -> ""
        | n -> Printf.sprintf " (%d dropped: collector full)" n);
      (match result with
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let preset_conv =
  let parse s =
    match s with
    | "ipv4-aug20" -> Ok (Hoiho_netsim.Presets.ipv4_aug20 ())
    | "ipv4-mar21" -> Ok (Hoiho_netsim.Presets.ipv4_mar21 ())
    | "ipv6-nov20" -> Ok (Hoiho_netsim.Presets.ipv6_nov20 ())
    | "ipv6-mar21" -> Ok (Hoiho_netsim.Presets.ipv6_mar21 ())
    | "tiny" -> Ok (Hoiho_netsim.Presets.tiny ())
    | other -> Error (`Msg (Printf.sprintf "unknown preset %S" other))
  in
  let print fmt (c : Hoiho_netsim.Generate.config) =
    Format.pp_print_string fmt c.Hoiho_netsim.Generate.label
  in
  Arg.conv (parse, print)

let preset_arg =
  Arg.(
    value
    & opt preset_conv (Hoiho_netsim.Presets.tiny ())
    & info [ "p"; "preset" ] ~docv:"PRESET"
        ~doc:
          "Dataset preset: ipv4-aug20, ipv4-mar21, ipv6-nov20, ipv6-mar21, or \
           tiny.")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Override the preset's PRNG seed.")

let input_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "i"; "input" ] ~docv:"FILE"
        ~doc:"Read the dataset from $(docv) instead of generating one.")

let apply_seed config = function
  | None -> config
  | Some seed -> { config with Hoiho_netsim.Generate.seed }

(* the reader's errors already name the line; drop its own prefix *)
let load_corpus_or_die path =
  match Hoiho_itdk.Io.load path with
  | ds -> ds
  | exception (Failure msg | Sys_error msg) ->
      let prefix = "Itdk.Io.read: " in
      let msg =
        if Hoiho_util.Strutil.has_prefix ~prefix msg then
          String.sub msg (String.length prefix) (String.length msg - String.length prefix)
        else msg
      in
      Printf.eprintf "hoiho: cannot load corpus %s: %s\n" path msg;
      exit 1

let dataset_of config seed input =
  match input with
  | Some path -> (load_corpus_or_die path, Hoiho_geodb.Db.default ())
  | None ->
      let ds, truth = Hoiho_netsim.Generate.generate (apply_seed config seed) in
      (ds, Hoiho_netsim.Truth.db truth)

(* --- generate --- *)

let generate_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run config seed out =
    let ds, _ = Hoiho_netsim.Generate.generate (apply_seed config seed) in
    Hoiho_itdk.Io.save out ds;
    Printf.printf "%s\nwrote %s\n" (Hoiho_itdk.Dataset.summary ds) out
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize an ITDK-style dataset.")
    Term.(const run $ preset_arg $ seed_arg $ out)

(* --- learn --- *)

let classification_name = function
  | Some Hoiho.Ncsel.Good -> "good"
  | Some Hoiho.Ncsel.Promising -> "promising"
  | Some Hoiho.Ncsel.Poor -> "poor"
  | None -> "-"

let learn_cmd =
  let suffix_filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "suffix" ] ~docv:"SUFFIX" ~doc:"Only report this domain suffix.")
  in
  let show_regexes =
    Arg.(value & flag & info [ "r"; "regexes" ] ~doc:"Print the regexes of each NC.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a JSON observability snapshot of the run (per-stage \
             durations, regex-engine and pool counters) to $(docv).")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Inject seeded faults into the dataset before learning: \
             hostname mangling, dictionary dropout, RTT loss/outliers/\
             negation, alias-resolution errors. Deterministic in \
             $(docv). Degraded suffix groups are reported, never \
             fatal.")
  in
  let chaos_level =
    Arg.(
      value
      & opt int 1
      & info [ "chaos-level" ] ~docv:"N"
          ~doc:
            "Chaos intensity: each level adds about 8 points of \
             per-item injection probability (default 1).")
  in
  let openmetrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "openmetrics" ] ~docv:"FILE"
          ~doc:
            "Write the run's metrics to $(docv) in OpenMetrics/\
             Prometheus text exposition when done (and periodically \
             during the run with $(b,--openmetrics-interval)).")
  in
  let openmetrics_interval =
    Arg.(
      value
      & opt float 0.
      & info [ "openmetrics-interval" ] ~docv:"SEC"
          ~doc:
            "With $(b,--openmetrics): additionally rewrite the file \
             every $(docv) seconds during the run, so long runs can be \
             scraped live. 0 (the default) writes only at the end.")
  in
  let run config seed input suffix_filter show_regexes metrics_out chaos_seed
      chaos_level trace_out openmetrics_out openmetrics_interval =
    let ds, db = dataset_of config seed input in
    (* scope the process-wide registry to this run so the snapshot in
       --metrics reflects exactly the work reported below (chaos
       injection volumes included) *)
    Hoiho_obs.Obs.reset ();
    let emitter =
      match (openmetrics_out, openmetrics_interval) with
      | Some path, period_s when period_s > 0. ->
          Some (Hoiho_obs.Obs.start_emitter ~period_s ~path ())
      | _ -> None
    in
    let db, ds =
      match chaos_seed with
      | None -> (db, ds)
      | Some cseed ->
          Hoiho_netsim.Chaos.apply
            (Hoiho_netsim.Chaos.config ~level:chaos_level cseed)
            db ds
    in
    let pipeline = with_trace trace_out (fun () -> Hoiho.Pipeline.run ~db ds) in
    (match emitter with
    | Some e ->
        (* joins the emitter domain, then writes the final snapshot
           itself — the periodic rewrites can never race or clobber
           the end-of-run file *)
        Hoiho_obs.Obs.stop_emitter e
    | None -> (
        (* no periodic emitter: the same atomic writer, once, so both
           modes produce the final file the same way *)
        match openmetrics_out with
        | None -> ()
        | Some path -> Hoiho_obs.Obs.write_openmetrics path));
    (match openmetrics_out with
    | Some path -> Printf.printf "wrote OpenMetrics exposition to %s\n" path
    | None -> ());
    let results =
      match suffix_filter with
      | None -> pipeline.Hoiho.Pipeline.results
      | Some s -> List.filter (fun (r : Hoiho.Pipeline.suffix_result) -> r.suffix = s)
                    pipeline.Hoiho.Pipeline.results
    in
    let shown =
      List.filter (fun (r : Hoiho.Pipeline.suffix_result) -> r.n_tagged > 0) results
    in
    Printf.printf "%-30s %6s %6s %5s %5s %5s %5s %5s  %s\n" "suffix" "hosts"
      "tagged" "tp" "fp" "fn" "unk" "lrn" "class";
    List.iter
      (fun (r : Hoiho.Pipeline.suffix_result) ->
        let tp, fp, fn, unk =
          match r.nc with
          | Some nc ->
              ( nc.Hoiho.Ncsel.counts.Hoiho.Evalx.tp,
                nc.Hoiho.Ncsel.counts.Hoiho.Evalx.fp,
                nc.Hoiho.Ncsel.counts.Hoiho.Evalx.fn,
                nc.Hoiho.Ncsel.counts.Hoiho.Evalx.unk )
          | None -> (0, 0, 0, 0)
        in
        Printf.printf "%-30s %6d %6d %5d %5d %5d %5d %5d  %s\n" r.suffix
          r.n_samples r.n_tagged tp fp fn unk
          (Hoiho.Learned.size r.learned)
          (classification_name r.classification);
        if show_regexes then begin
          (match r.nc with
          | Some nc ->
              List.iter
                (fun (c : Hoiho.Cand.t) ->
                  Printf.printf "    %s    [%s]\n" c.Hoiho.Cand.source
                    (Format.asprintf "%a" Hoiho.Plan.pp c.Hoiho.Cand.plan))
                nc.Hoiho.Ncsel.cands
          | None -> ());
          List.iter
            (fun (e : Hoiho.Learned.entry) ->
              Printf.printf "    learned %-8s -> %s\n" e.Hoiho.Learned.hint
                (Hoiho_geodb.City.describe e.Hoiho.Learned.city))
            (Hoiho.Learned.entries r.learned)
        end)
      shown;
    let degraded =
      List.filter
        (fun (r : Hoiho.Pipeline.suffix_result) -> r.degraded <> None)
        pipeline.Hoiho.Pipeline.results
    in
    if degraded <> [] then begin
      Printf.printf "\n%d suffix group(s) degraded (pipeline continued without them):\n"
        (List.length degraded);
      List.iter
        (fun (r : Hoiho.Pipeline.suffix_result) ->
          match r.degraded with
          | Some d ->
              Printf.printf "  %-30s stage %-9s %s\n" r.suffix
                d.Hoiho.Pipeline.stage d.Hoiho.Pipeline.error
          | None -> ())
        degraded
    end;
    match metrics_out with
    | None -> ()
    | Some path ->
        Hoiho_obs.Obs.write_file_atomic path
          (Hoiho_util.Json.to_string
             (Hoiho_obs.Obs.to_json pipeline.Hoiho.Pipeline.metrics)
          ^ "\n");
        Printf.printf "wrote metrics snapshot to %s\n" path
  in
  Cmd.v
    (Cmd.info "learn" ~doc:"Learn naming conventions from a dataset.")
    Term.(
      const run $ preset_arg $ seed_arg $ input_arg $ suffix_filter $ show_regexes
      $ metrics_out $ chaos_seed $ chaos_level $ trace_arg $ openmetrics_out
      $ openmetrics_interval)

(* --- save-model / apply / geolocate --- *)

(* every answer prints with its confidence score; a --min-conf floor
   turns a kept-but-low-scoring answer into the distinct
   "(low confidence)" outcome, score still shown *)
let print_answer ?min_conf hostname (answer : Hoiho_serve.Serve.answer) =
  let conf = answer.Hoiho_serve.Serve.confidence in
  let below = match min_conf with Some f -> conf < f | None -> false in
  match answer.Hoiho_serve.Serve.city with
  | Some _ when below ->
      Printf.printf "%-50s (low confidence)\t%.3f\n" hostname conf
  | Some city ->
      Printf.printf "%-50s %s\t%.3f\n" hostname
        (Hoiho_geodb.City.describe city) conf
  | None -> Printf.printf "%-50s (no geolocation)\t%.3f\n" hostname conf

let min_conf_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-conf" ] ~docv:"X"
        ~doc:
          "Confidence floor in [0,1]: answers scoring below $(docv) print as \
           (low confidence) with their score instead of a geohint.")

let load_model_or_die path =
  match Hoiho.Learned_io.load path with
  | Ok model -> model
  | Error e ->
      Printf.eprintf "hoiho: cannot load model %s: %s\n" path
        (Hoiho.Learned_io.error_to_string e);
      exit 1

let model_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "model" ] ~docv:"FILE"
        ~doc:"Serve from a model snapshot written by $(b,save-model), skipping \
              the learning run entirely.")

let save_model_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Snapshot output path.")
  in
  let run config seed input out =
    let ds, db = dataset_of config seed input in
    Hoiho_obs.Obs.reset ();
    let pipeline = Hoiho.Pipeline.run ~db ds in
    let model = Hoiho.Learned_io.of_pipeline pipeline in
    Hoiho.Learned_io.save out model;
    let n_regexes =
      List.fold_left
        (fun a (s : Hoiho.Learned_io.suffix_model) ->
          a + List.length s.Hoiho.Learned_io.cands)
        0 model.Hoiho.Learned_io.suffixes
    in
    let n_learned =
      List.fold_left
        (fun a (s : Hoiho.Learned_io.suffix_model) ->
          a + Hoiho.Learned.size s.Hoiho.Learned_io.learned)
        0 model.Hoiho.Learned_io.suffixes
    in
    Printf.printf
      "wrote %s: format v%d, %d suffix model(s), %d regex(es), %d learned hint(s), %s dictionary\n"
      out Hoiho.Learned_io.format_version
      (List.length model.Hoiho.Learned_io.suffixes)
      n_regexes n_learned
      (match model.Hoiho.Learned_io.dictionary with
      | Hoiho.Learned_io.Default -> "default"
      | Hoiho.Learned_io.Embedded cities ->
          Printf.sprintf "embedded (%d cities)" (List.length cities))
  in
  Cmd.v
    (Cmd.info "save-model"
       ~doc:
         "Learn naming conventions and snapshot the resulting model to a \
          versioned JSON file for later $(b,apply) runs.")
    Term.(const run $ preset_arg $ seed_arg $ input_arg $ out)

let read_stdin_hostnames () =
  let rec go acc =
    match input_line stdin with
    | line ->
        let line = String.trim line in
        go (if line = "" then acc else line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let batch, rest = take n [] l in
      batch :: chunks n rest

let apply_cmd =
  let model_path =
    Arg.(
      required
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Model snapshot written by $(b,save-model).")
  in
  let batch =
    Arg.(
      value
      & opt int 256
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Apply hostnames in batches of $(docv): each batch's uncached \
             hostnames are geolocated in parallel over the domain pool.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print serving statistics to stderr when done: cache \
             hit/miss/eviction counts, the hit ratio, and a batch-time \
             summary normalized per 1000 hostnames.")
  in
  let hostnames =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"HOSTNAME"
          ~doc:"Hostnames to locate (read from stdin when none are given).")
  in
  let run model_path batch stats min_conf trace_out hostnames =
    let model = load_model_or_die model_path in
    let serve = Hoiho_serve.Serve.create model in
    let hostnames =
      match hostnames with [] -> read_stdin_hostnames () | l -> l
    in
    with_trace trace_out (fun () ->
        List.iter
          (fun chunk ->
            List.iter
              (fun (hostname, answer) -> print_answer ?min_conf hostname answer)
              (Hoiho_serve.Serve.apply_batch serve chunk))
          (chunks (max 1 batch) hostnames));
    if stats then begin
      let s = Hoiho_obs.Obs.snapshot () in
      let c name = Option.value (Hoiho_obs.Obs.find_counter s name) ~default:0 in
      let applied = c "serve.applied" in
      let hits = c "serve.cache_hits" and misses = c "serve.cache_misses" in
      let probes = hits + misses in
      let ratio =
        if probes = 0 then 0.0
        else 100.0 *. float_of_int hits /. float_of_int probes
      in
      Printf.eprintf
        "serve: %d applied, %d cache hits, %d misses, %d evictions \
         (hit ratio %.1f%%)\n"
        applied hits misses (c "serve.cache_evictions") ratio;
      match Hoiho_obs.Obs.find_histogram s "serve.batch_ms" with
      | Some h when applied > 0 ->
          let per_1k = h.Hoiho_obs.Histo.sum *. 1000.0 /. float_of_int applied in
          Printf.eprintf
            "serve: %d batch(es), %.1f ms total, %.2f ms per 1k hostnames \
             (batch p50 %.2f ms, p95 %.2f ms)\n"
            h.Hoiho_obs.Histo.n h.Hoiho_obs.Histo.sum per_1k
            h.Hoiho_obs.Histo.p50 h.Hoiho_obs.Histo.p95
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "apply"
       ~doc:
         "Geolocate hostnames from a saved model — the high-throughput \
          serving path: no learning run, answers cached in a sharded LRU.")
    Term.(
      const run $ model_path $ batch $ stats $ min_conf_arg $ trace_arg
      $ hostnames)

(* --- serve --- *)

let serve_cmd =
  let model_path =
    Arg.(
      required
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Model snapshot written by $(b,save-model).")
  in
  let port =
    Arg.(
      value
      & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0, the default, picks an ephemeral \
                port and prints it).")
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Accept-loop domains (and apply parallelism). Defaults to the \
             worker-pool default (HOIHO_JOBS or the core count).")
  in
  let max_pending =
    Arg.(
      value
      & opt int 1024
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission bound: with $(docv) hostnames already queued, new \
             requests are shed with 503 instead of joining an unbounded \
             backlog.")
  in
  let timeout =
    Arg.(
      value
      & opt float 5.0
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Per-request read deadline: a client that has not delivered a \
             full request within $(docv) seconds is answered 408 and \
             disconnected (slow-loris defense).")
  in
  let corpus =
    Arg.(
      value
      & opt (some file) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:
            "ITDK corpus the model was learned from; enables POST /observe \
             (incremental relearn from observation events).")
  in
  let slo =
    Arg.(
      value
      & opt (some file) None
      & info [ "slo" ] ~docv:"FILE"
          ~doc:
            "SLO declaration file (strict JSON: window_s, buckets, \
             objectives) for the health monitor. /healthz answers 503 when \
             an objective burns past its fail_ratio. A malformed file, one \
             over 64 KiB or one asking for more than 120 buckets fails \
             startup.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per request to $(docv) (request id, \
             endpoint, status, latency, batch size, cache hit, confidence, \
             shed/degraded flags), rotated by size to $(docv).1.")
  in
  let run model_path corpus slo access_log port host jobs max_pending timeout =
    let model = load_model_or_die model_path in
    let slo =
      match slo with
      | None -> Hoiho_net.Slo.default
      | Some path -> (
          match Hoiho_net.Slo.load path with
          | Ok s -> s
          | Error e ->
              Printf.eprintf "hoiho: cannot load SLO file %s: %s\n" path e;
              exit 1)
    in
    let config =
      {
        Hoiho_net.Server.host;
        port;
        jobs =
          (match jobs with
          | Some j -> max 1 j
          | None -> Hoiho_obs.Pool.default_jobs ());
        max_pending = max 1 max_pending;
        request_timeout_s = Float.max 0.05 timeout;
        model_path = Some model_path;
        slo;
        access_log;
      }
    in
    let corpus = Option.map load_corpus_or_die corpus in
    let server = Hoiho_net.Server.start ~config ?corpus model in
    let stop = Atomic.make false in
    let handle = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm handle;
    Sys.set_signal Sys.sigint handle;
    (* SIGHUP = hot reload: the handler only flips an atomic; the
       server's housekeeping domain re-decodes the snapshot off-path
       and swaps it in (fresh cache included), so serving never stops *)
    Sys.set_signal Sys.sighup
      (Sys.Signal_handle (fun _ -> Hoiho_net.Server.request_reload server));
    Printf.printf "hoiho: serving %s on %s:%d (jobs=%d)\n%!" model_path
      config.Hoiho_net.Server.host
      (Hoiho_net.Server.port server)
      config.Hoiho_net.Server.jobs;
    Printf.printf
      "hoiho: GET /geolocate?h= /explain?h= /metrics /healthz /debug/slo \
       /debug/windows; POST /batch /reload%s; SIGHUP reloads, SIGTERM stops\n\
       %!"
      (match corpus with Some _ -> " /observe" | None -> "");
    while not (Atomic.get stop) do
      (* sleepf returns early on EINTR when a signal lands *)
      try Unix.sleepf 0.2 with Unix.Unix_error (EINTR, _, _) -> ()
    done;
    Hoiho_net.Server.stop server;
    Printf.printf "hoiho: shut down cleanly\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve geolocations from a saved model over HTTP: a multi-domain \
          TCP daemon with request batching, bounded admission (503 under \
          backlog), OpenMetrics at /metrics, decision traces at /explain, \
          and hot model reload (SIGHUP or POST /reload) that swaps the \
          snapshot atomically without dropping traffic.")
    Term.(
      const run $ model_path $ corpus $ slo $ access_log $ port $ host $ jobs
      $ max_pending $ timeout)

(* --- health --- *)

module Http = Hoiho_net.Http

(* one GET /healthz, its answer read by [Http.read_response] under the
   default limits: the whole answer within the deadline, a body of at
   most 1 MiB. The socket's send timeout bounds the connect and the
   write, and [Http] bounds each read by the time the answer has left,
   so a daemon that accepts but never answers cannot hang it. *)
let probe_timeout_s = Http.default_limits.Http.deadline_ms /. 1000.0

let probe_healthz url =
  let strip_prefix p s =
    if String.length s >= String.length p
       && String.(lowercase_ascii (sub s 0 (length p))) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  let rest =
    match strip_prefix "http://" url with
    | Some r -> r
    | None -> ( match strip_prefix "https://" url with
      | Some _ ->
          Printf.eprintf "hoiho: health: https is not supported\n";
          exit 2
      | None -> url)
  in
  let hostport =
    match String.index_opt rest '/' with
    | Some i -> String.sub rest 0 i
    | None -> rest
  in
  let host, port =
    match String.index_opt hostport ':' with
    | Some i ->
        ( String.sub hostport 0 i,
          int_of_string
            (String.sub hostport (i + 1) (String.length hostport - i - 1)) )
    | None -> (hostport, 80)
  in
  let host = if host = "" then "127.0.0.1" else host in
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO probe_timeout_s;
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      let host_header = ("Host", Printf.sprintf "%s:%d" host port) in
      Http.write_all fd
        (Http.request ~meth:"GET"
           ~headers:[ host_header; ("Connection", "close") ]
           "/healthz");
      Http.read_response (Http.reader_of_fd fd))

let health_cmd =
  let url =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"URL"
          ~doc:
            "Daemon base URL, e.g. $(b,http://127.0.0.1:8080) (the /healthz \
             path is implied).")
  in
  let run url =
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "hoiho: health: %s %s\n" url m;
          exit 2)
        fmt
    in
    match probe_healthz url with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINPROGRESS), _, _)
    | Error (Http.Idle | Http.Timeout) ->
        fail "did not answer within the %g s timeout" probe_timeout_s
    | exception e -> fail "unreachable: %s" (Printexc.to_string e)
    | Error Http.Closed -> fail "closed the connection before a complete answer"
    | Error (Http.Bad_request m) -> fail "sent a malformed answer: %s" m
    | Error (Http.Too_large m) -> fail "sent an answer over the bounds: %s" m
    | Ok r ->
        Printf.printf "%d %s\n" r.Http.status (String.trim r.Http.body);
        if r.Http.status <> 200 then exit 1
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         (Printf.sprintf
            "Probe a running daemon's /healthz and print the evaluated \
             state. Exits 0 when healthy (200) and 1 on any other status \
             (503 when degraded service reports failing). Exits 2 when \
             the daemon is unreachable or its answer is not a bounded, \
             well-formed HTTP response: the deadline of %g s covers the \
             whole answer, not each read, so the probe gives up within \
             %g s of sending its request, and the body is capped at 1 \
             MiB. Ready for scripting and orchestration liveness checks."
            probe_timeout_s probe_timeout_s))
    Term.(const run $ url)

(* --- explain --- *)

let explain_cmd =
  let model_path =
    Arg.(
      required
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Model snapshot written by $(b,save-model).")
  in
  let hostname =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"HOSTNAME" ~doc:"The hostname to explain.")
  in
  let run model_path min_conf hostname =
    let serve = Hoiho_serve.Serve.create (load_model_or_die model_path) in
    let answer, trace = Hoiho_serve.Serve.explain serve hostname in
    print_answer ?min_conf hostname answer;
    print_newline ();
    print_string trace
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Geolocate one hostname from a saved model and print the full \
          decision trace: the registered-suffix split, every candidate \
          regex tried with its capture groups, the dictionary entries \
          consulted (with collision losers), and the final geohint with \
          the rule that produced it.")
    Term.(const run $ model_path $ min_conf_arg $ hostname)

let geolocate_cmd =
  let hostnames =
    Arg.(value & pos_all string [] & info [] ~docv:"HOSTNAME" ~doc:"Hostnames to locate.")
  in
  let run config seed input model min_conf hostnames =
    let model =
      match model with
      | Some path -> load_model_or_die path
      | None ->
          Printf.eprintf
            "hoiho: note: geolocate re-learns conventions on every call; use \
             `hoiho save-model` once and `hoiho apply --model FILE` (or \
             `geolocate --model FILE`) to serve from the saved model\n";
          let ds, db = dataset_of config seed input in
          Hoiho.Learned_io.of_pipeline (Hoiho.Pipeline.run ~db ds)
    in
    let serve = Hoiho_serve.Serve.create model in
    List.iter
      (fun hostname ->
        print_answer ?min_conf hostname
          (Hoiho_serve.Serve.geolocate_conf serve hostname))
      hostnames
  in
  Cmd.v
    (Cmd.info "geolocate" ~doc:"Apply learned conventions to hostnames.")
    Term.(
      const run $ preset_arg $ seed_arg $ input_arg $ model_arg $ min_conf_arg
      $ hostnames)

(* --- compare --- *)

let compare_cmd =
  let run config seed =
    let config = apply_seed config seed in
    let ds, truth = Hoiho_netsim.Generate.generate config in
    let pipeline = Hoiho.Pipeline.run ~db:(Hoiho_netsim.Truth.db truth) ds in
    let suffixes = Hoiho_netsim.Oper.validation_suffixes in
    let cmps = Hoiho_validate.Validate.compare_methods pipeline truth ~suffixes in
    let open Hoiho_validate.Validate in
    Printf.printf "%-14s %5s | %-15s | %-15s | %-15s | %-15s\n" "suffix" "n"
      "hoiho tp/fp/fn%" "hloc" "drop" "undns";
    List.iter
      (fun (c : comparison) ->
        let f s = Printf.sprintf "%3.0f/%3.0f/%3.0f" (tp_pct s) (fp_pct s) (fn_pct s) in
        Printf.printf "%-14s %5d | %-15s | %-15s | %-15s | %-15s\n" c.suffix c.n
          (f c.hoiho) (f c.hloc) (f c.drop) (f c.undns))
      cmps
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare Hoiho against HLOC, DRoP and undns.")
    Term.(const run $ preset_arg $ seed_arg)

(* --- calibrate --- *)

let calibrate_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the report as JSON to $(docv).")
  in
  let run config seed out =
    let config = apply_seed config seed in
    let ds, truth = Hoiho_netsim.Generate.generate config in
    let pipeline = Hoiho.Pipeline.run ~db:(Hoiho_netsim.Truth.db truth) ds in
    let suffixes = Hoiho_netsim.Truth.geo_suffixes truth in
    let report = Hoiho_validate.Calibration.of_pipeline pipeline truth ~suffixes in
    print_string (Hoiho_validate.Calibration.render_text report);
    match out with
    | None -> ()
    | Some path ->
        Hoiho_obs.Obs.write_file_atomic path
          (Hoiho_util.Json.to_string (Hoiho_validate.Calibration.to_json report)
          ^ "\n");
        Printf.printf "wrote calibration report to %s\n" path
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Measure confidence calibration against generator ground truth: \
          bucket every ground-truth answer (abstentions included, at 0.0) \
          by confidence decile and report per-bucket accuracy, the Brier \
          score, and the expected calibration error.")
    Term.(const run $ preset_arg $ seed_arg $ out)

(* --- report --- *)

let report_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Directory for the pages.")
  in
  let run config seed input out =
    let ds, db = dataset_of config seed input in
    let pipeline = Hoiho.Pipeline.run ~db ds in
    let n = Hoiho_validate.Webreport.write pipeline ~dir:out in
    Printf.printf "wrote index.md and %d suffix pages to %s\n" n out
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render per-suffix pages of inferred conventions (the paper's website).")
    Term.(const run $ preset_arg $ seed_arg $ input_arg $ out)

(* --- lookup --- *)

let lookup_cmd =
  let code =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CODE" ~doc:"Hint string.")
  in
  let run code =
    let db = Hoiho_geodb.Db.default () in
    let kinds =
      [ Hoiho.Plan.Iata; Hoiho.Plan.Icao; Hoiho.Plan.Locode; Hoiho.Plan.Clli;
        Hoiho.Plan.CityName; Hoiho.Plan.FacilityAddr ]
    in
    List.iter
      (fun kind ->
        match Hoiho.Dicts.lookup db kind code with
        | [] -> ()
        | cities ->
            List.iter
              (fun city ->
                Printf.printf "%-8s %s\n"
                  (Hoiho.Plan.hint_type_name kind)
                  (Hoiho_geodb.City.describe city))
              cities)
      kinds
  in
  Cmd.v
    (Cmd.info "lookup" ~doc:"Consult the reference location dictionary.")
    Term.(const run $ code)

(* --- relearn --- *)

let relearn_cmd =
  let model_path =
    Arg.(
      required
      & opt (some file) None
      & info [ "model" ] ~docv:"FILE"
          ~doc:"Prior model snapshot (a default-options learn of the corpus).")
  in
  let events_path =
    Arg.(
      required
      & opt (some file) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Observation events in the $(b,hoiho) delta wire format.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Updated snapshot output path.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the dirty-group relearn.")
  in
  let run config seed input model_path events_path out jobs =
    let model = load_model_or_die model_path in
    (* The corpus the model was learned from; the model brings its own
       dictionary, so dataset_of's db is irrelevant here. *)
    let corpus, _db = dataset_of config seed input in
    let events =
      match Hoiho.Delta.load_events events_path with
      | Ok events -> events
      | Error msg ->
          Printf.eprintf "hoiho: bad events in %s: %s\n" events_path msg;
          exit 1
    in
    match Hoiho.Delta.relearn_model ?jobs ~model ~corpus events with
    | Error e ->
        Printf.eprintf "hoiho: %s\n" (Hoiho.Delta.error_to_string e);
        exit 1
    | Ok (model', _corpus', stats) ->
        Hoiho.Learned_io.save out model';
        Printf.printf
          "relearned: %d event(s), %d dirty suffix(es), %d group(s) \
           relearned, %d reused\nwrote %s\n"
          stats.Hoiho.Delta.events
          (List.length stats.Hoiho.Delta.dirty)
          stats.Hoiho.Delta.groups_relearned stats.Hoiho.Delta.groups_reused
          out;
        print_string (Hoiho.Model_diff.render_text
                        (Hoiho.Model_diff.diff model model'))
  in
  Cmd.v
    (Cmd.info "relearn"
       ~doc:
         "Apply observation events to a corpus and incrementally relearn \
          only the dirty suffix groups, reusing the prior model for the \
          rest.")
    Term.(
      const run $ preset_arg $ seed_arg $ input_arg $ model_path $ events_path
      $ out $ jobs)

(* --- diff-model --- *)

let diff_model_cmd =
  let before =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BEFORE" ~doc:"Earlier model snapshot.")
  in
  let after =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"AFTER" ~doc:"Later model snapshot.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable JSON diff instead.")
  in
  let run before after json =
    let diff =
      Hoiho.Model_diff.diff (load_model_or_die before) (load_model_or_die after)
    in
    if json then print_endline (Hoiho.Model_diff.encode diff)
    else print_string (Hoiho.Model_diff.render_text diff)
  in
  Cmd.v
    (Cmd.info "diff-model"
       ~doc:
         "Diff two model snapshots: suffixes added, dropped, and changed, \
          with per-hint geohint movement.")
    Term.(const run $ before $ after $ json)

let () =
  let doc = "learn geographic naming conventions from router hostnames" in
  exit (Cmd.eval (Cmd.group (Cmd.info "hoiho" ~doc)
                    [ generate_cmd; learn_cmd; save_model_cmd; apply_cmd;
                      serve_cmd; health_cmd; explain_cmd; geolocate_cmd;
                      compare_cmd; calibrate_cmd; report_cmd; lookup_cmd;
                      relearn_cmd; diff_model_cmd ]))
