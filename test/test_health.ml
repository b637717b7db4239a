(* The serving health subsystem: sliding windows (rotation edges,
   jobs-invariance under an injected clock), the burn-rate evaluator,
   calibration drift, the access-log line format, and SLO file
   parsing. Everything clock-injected — no sleeps, no daemon. *)

module Window = Hoiho_obs.Window
module Histo = Hoiho_obs.Histo
module Health = Hoiho_obs.Health
module Access_log = Hoiho_net.Access_log
module Slo = Hoiho_net.Slo

let tc = Helpers.tc

(* --- Window --- *)

let test_window_basic_stats () =
  let w = Window.create ~bucket_ms:100.0 ~nbuckets:10 () in
  Alcotest.(check (float 1e-9)) "span" 1000.0 (Window.span_ms w);
  Alcotest.(check int) "nbuckets" 10 (Window.nbuckets w);
  List.iter
    (fun v -> Window.record w ~now_ms:50.0 (float_of_int v))
    [ 5; 1; 2; 3; 4 ];
  let s = Window.stats w ~now_ms:50.0 in
  Alcotest.(check int) "n" 5 s.Histo.n;
  Alcotest.(check bool) "p50 within 1/16 above 3.0" true
    (s.Histo.p50 >= 3.0 && s.Histo.p50 <= 3.0 *. (1.0 +. (1.0 /. 16.0)));
  Alcotest.(check (float 1e-9)) "p99" 5.0 s.Histo.p99;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Histo.max;
  Alcotest.(check (float 1e-9)) "sum" 15.0 s.Histo.sum;
  Alcotest.(check (float 1e-9)) "rate = n / span_s" 5.0
    (float_of_int s.Histo.n /. (Window.span_ms w /. 1000.0))

let test_window_empty () =
  let w = Window.create ~bucket_ms:100.0 ~nbuckets:4 () in
  let s = Window.stats w ~now_ms:0.0 in
  Alcotest.(check int) "n" 0 s.Histo.n;
  Alcotest.(check (float 1e-9)) "p50" 0.0 s.Histo.p50;
  Alcotest.(check (float 1e-9)) "max" 0.0 s.Histo.max;
  Alcotest.(check int) "no samples" 0 (Window.stats w ~now_ms:0.0).Histo.n

let test_window_bucket_boundary () =
  (* a sample stamped exactly at a bucket boundary belongs to the NEW
     epoch: floor(200/100) = epoch 2, not epoch 1 *)
  let w = Window.create ~bucket_ms:100.0 ~nbuckets:2 () in
  Window.record w ~now_ms:199.999 1.0;
  Window.record w ~now_ms:200.0 2.0;
  (* at now=200 the span covers epochs {1, 2}: both visible *)
  Alcotest.(check int) "boundary: both epochs in-window" 2
    (Window.stats w ~now_ms:200.0).Histo.n;
  (* at now=300 (epoch 3) the span covers {2, 3}: the 199.999 sample
     aged out, the 200.0 sample survives *)
  let s = Window.stats w ~now_ms:300.0 in
  Alcotest.(check int) "old epoch aged out" 1 s.Histo.n;
  Alcotest.(check (float 1e-9)) "survivor is the boundary sample" 2.0
    s.Histo.max

let test_window_idle_gap () =
  (* an idle gap longer than the whole span: no sweeper runs, yet the
     snapshot is empty because every stored epoch fails the span
     filter; the next record reuses the slots cleanly *)
  let w = Window.create ~bucket_ms:100.0 ~nbuckets:4 () in
  List.iter (fun t -> Window.record w ~now_ms:t 1.0) [ 10.0; 110.0; 210.0 ];
  Alcotest.(check int) "filled" 3 (Window.stats w ~now_ms:210.0).Histo.n;
  (* jump far past the span (4 buckets x 100 ms) without recording *)
  Alcotest.(check int) "all aged out after idle gap" 0
    (Window.stats w ~now_ms:5000.0).Histo.n;
  (* slot reuse after the gap: epoch 50 maps to the same slot as epoch
     2 (50 mod 4 = 2) and must reset it rather than mix samples *)
  Window.record w ~now_ms:5010.0 9.0;
  let s = Window.stats w ~now_ms:5010.0 in
  Alcotest.(check int) "fresh epoch only" 1 s.Histo.n;
  Alcotest.(check (float 1e-9)) "fresh value" 9.0 s.Histo.max

let test_window_rollover_evicts_oldest () =
  let w = Window.create ~bucket_ms:100.0 ~nbuckets:3 () in
  (* one sample per epoch 0..2 fills the ring *)
  Window.record w ~now_ms:0.0 10.0;
  Window.record w ~now_ms:100.0 20.0;
  Window.record w ~now_ms:200.0 30.0;
  Alcotest.(check int) "full ring" 3 (Window.stats w ~now_ms:200.0).Histo.n;
  (* writing epoch 3 reuses epoch 0's slot *)
  Window.record w ~now_ms:300.0 40.0;
  let s = Window.stats w ~now_ms:300.0 in
  Alcotest.(check int) "oldest evicted" 3 s.Histo.n;
  Alcotest.(check (float 1e-9)) "newest kept" 40.0 s.Histo.max;
  Alcotest.(check (float 1e-9)) "sum of 20, 30, 40" 90.0 s.Histo.sum

let test_window_invalid_args () =
  Alcotest.check_raises "bucket_ms <= 0"
    (Invalid_argument "Window.create: bucket_ms <= 0") (fun () ->
      ignore (Window.create ~bucket_ms:0.0 ~nbuckets:4 ()));
  Alcotest.check_raises "nbuckets < 1"
    (Invalid_argument "Window.create: nbuckets < 1") (fun () ->
      ignore (Window.create ~bucket_ms:10.0 ~nbuckets:0 ()))

(* the determinism the access-log/window replay contract rests on:
   the same (value, now_ms) multiset recorded from 1 domain or 4
   domains — in any interleaving — yields identical stats and deciles *)
let test_window_jobs_invariant () =
  let entries =
    List.init 400 (fun i ->
        (float_of_int ((i * 7919) mod 1000) /. 10.0, float_of_int (i mod 950)))
  in
  let record_all w items =
    List.iter (fun (v, t) -> Window.record w ~now_ms:t v) items
  in
  let w1 = Window.create ~bucket_ms:100.0 ~nbuckets:10 () in
  record_all w1 entries;
  let w4 = Window.create ~bucket_ms:100.0 ~nbuckets:10 () in
  let parts = Array.make 4 [] in
  List.iteri (fun i e -> parts.(i mod 4) <- e :: parts.(i mod 4)) entries;
  let domains =
    Array.map (fun part -> Domain.spawn (fun () -> record_all w4 part)) parts
  in
  Array.iter Domain.join domains;
  let now = 949.0 in
  Alcotest.(check bool) "jobs=1 = jobs=4 stats" true
    (Window.stats w1 ~now_ms:now = Window.stats w4 ~now_ms:now);
  Alcotest.(check bool) "jobs=1 = jobs=4 deciles" true
    (Window.deciles w1 ~now_ms:now = Window.deciles w4 ~now_ms:now);
  Alcotest.(check bool) "the window is not empty" true
    ((Window.stats w1 ~now_ms:now).Histo.n > 0)

(* --- Health evaluator --- *)

let obj metric max_value fail_ratio = { Health.metric; max_value; fail_ratio }

let test_evaluate_states () =
  let objectives = [ obj "latency_p99_ms" 100.0 3.0 ] in
  Alcotest.(check int) "within budget -> Ok" 0
    (Health.state_to_int
       (Health.evaluate ~objectives ~measurements:[ ("latency_p99_ms", 80.0) ]));
  (match Health.evaluate ~objectives ~measurements:[ ("latency_p99_ms", 150.0) ]
  with
  | Health.Degraded [ r ] ->
      Alcotest.(check bool) "reason names the metric" true
        (String.length r > 0 && String.sub r 0 14 = "latency_p99_ms")
  | s -> Alcotest.failf "expected Degraded, got %s" (Health.state_label s));
  (match Health.evaluate ~objectives ~measurements:[ ("latency_p99_ms", 300.0) ]
  with
  | Health.Failing [ _ ] -> ()
  | s -> Alcotest.failf "expected Failing, got %s" (Health.state_label s));
  (* a missing measurement is skipped, not failed *)
  Alcotest.(check int) "missing measurement -> Ok" 0
    (Health.state_to_int (Health.evaluate ~objectives ~measurements:[]))

let test_evaluate_failing_dominates () =
  let objectives =
    [ obj "error_rate" 0.1 2.0; obj "latency_p99_ms" 100.0 2.0 ]
  in
  match
    Health.evaluate ~objectives
      ~measurements:[ ("error_rate", 0.5); ("latency_p99_ms", 150.0) ]
  with
  | Health.Failing reasons ->
      (* the failing objective leads; the merely-degraded one rides along *)
      Alcotest.(check int) "both reasons carried" 2 (List.length reasons);
      Alcotest.(check bool) "failing reason first" true
        (String.sub (List.hd reasons) 0 10 = "error_rate")
  | s -> Alcotest.failf "expected Failing, got %s" (Health.state_label s)

let test_render () =
  Alcotest.(check string) "ok" "ok" (Health.render Health.Ok);
  Alcotest.(check string) "degraded" "degraded: a; b"
    (Health.render (Health.Degraded [ "a"; "b" ]));
  Alcotest.(check string) "failing" "failing: x"
    (Health.render (Health.Failing [ "x" ]))

let test_default_objectives_clean_server_ok () =
  (* a fresh monitor with zero traffic must evaluate Ok: /healthz's
     "ok" body on a clean daemon is pinned by test_net and serve_check *)
  let d = Slo.default in
  let m =
    Health.create_monitor ~objectives:d.Slo.objectives ~bucket_ms:d.Slo.bucket_ms
      ~nbuckets:d.Slo.nbuckets
  in
  Alcotest.(check int) "clean monitor Ok" 0
    (Health.state_to_int (Health.evaluate_monitor m ~now_ms:0.0))

let deciles_of xs =
  let h = Histo.create () in
  List.iter (Histo.record h) xs;
  Histo.deciles h

let test_decile_histogram_and_drift () =
  let h = deciles_of [ 0.05; 0.05; 0.95; 1.0 ] in
  Alcotest.(check (float 1e-9)) "bottom decile mass" 0.5 h.(0);
  Alcotest.(check (float 1e-9)) "1.0 clamps into top decile" 0.5 h.(9);
  Alcotest.(check (float 1e-9)) "normalized" 1.0 (Array.fold_left ( +. ) 0.0 h);
  Alcotest.(check (float 1e-9)) "empty input is all-zero" 0.0
    (Array.fold_left ( +. ) 0.0 (deciles_of []));
  Alcotest.(check (float 1e-9)) "identical -> drift 0" 0.0
    (Health.drift ~expected:h ~observed:h);
  let lo = deciles_of [ 0.05 ] in
  let hi = deciles_of [ 0.95 ] in
  Alcotest.(check (float 1e-9)) "disjoint -> drift 1" 1.0
    (Health.drift ~expected:lo ~observed:hi)

let test_monitor_measurements () =
  let m =
    Health.create_monitor ~objectives:Health.default_objectives ~bucket_ms:100.0
      ~nbuckets:10
  in
  for i = 0 to 9 do
    Health.record_request m
      ~now_ms:(float_of_int (i * 50))
      ~latency_ms:(float_of_int (10 + i))
      ~status:(if i < 2 then 500 else 200)
      ~shed:(i = 0)
  done;
  let meas = Health.measurements m ~now_ms:480.0 in
  let get k = List.assoc k meas in
  Alcotest.(check (float 1e-9)) "error rate = 2/10" 0.2 (get "error_rate");
  Alcotest.(check (float 1e-9)) "shed rate = 1/10" 0.1 (get "shed_rate");
  Alcotest.(check (float 1e-9)) "p99 latency" 19.0 (get "latency_p99_ms");
  Alcotest.(check bool) "no drift without a profile" true
    (not (List.mem_assoc "calibration_drift" meas))

let test_monitor_drift_gating_and_degraded () =
  let m =
    Health.create_monitor
      ~objectives:[ obj "calibration_drift" 0.2 2.5 ]
      ~bucket_ms:100.0 ~nbuckets:10
  in
  (* expected: everything in the top decile; observed: bottom decile *)
  let expected = deciles_of [ 0.95 ] in
  Health.set_expected_profile m (Some expected);
  let below = Health.drift_min_samples - 1 in
  for i = 1 to below do
    Health.record_confidence m ~now_ms:(float_of_int i) 0.05
  done;
  Alcotest.(check bool) "below min samples: drift unmeasured" true
    (not (List.mem_assoc "calibration_drift" (Health.measurements m ~now_ms:50.0)));
  Health.record_confidence m ~now_ms:60.0 0.05;
  let meas = Health.measurements m ~now_ms:60.0 in
  Alcotest.(check (float 1e-9)) "fully shifted distribution drifts 1.0" 1.0
    (List.assoc "calibration_drift" meas);
  (match Health.evaluate_monitor m ~now_ms:60.0 with
  | Health.Failing _ -> ()
  | s -> Alcotest.failf "burn 5 >= 2.5: expected Failing, got %s"
           (Health.state_label s));
  (* None disables the measurement entirely *)
  Health.set_expected_profile m None;
  Alcotest.(check int) "no profile -> Ok" 0
    (Health.state_to_int (Health.evaluate_monitor m ~now_ms:60.0))

let test_monitor_recovery () =
  (* the windowed state machine recovers on its own: bad requests age
     out of the span and the evaluator returns to Ok with no resets *)
  let m =
    Health.create_monitor
      ~objectives:[ obj "error_rate" 0.1 2.0 ]
      ~bucket_ms:100.0 ~nbuckets:4
  in
  for i = 0 to 9 do
    Health.record_request m ~now_ms:(float_of_int (i * 10)) ~latency_ms:1.0
      ~status:500 ~shed:false
  done;
  (match Health.evaluate_monitor m ~now_ms:90.0 with
  | Health.Failing _ -> ()
  | s -> Alcotest.failf "all-errors: expected Failing, got %s"
           (Health.state_label s));
  Alcotest.(check int) "errors aged out -> Ok" 0
    (Health.state_to_int (Health.evaluate_monitor m ~now_ms:5000.0))

(* a monitor's memory does not grow with traffic: 10^6 records over
   ten window spans leave it exactly as large as 10^3 did. Every slot
   of every window is written in both phases, so both have each slot's
   [max] boxed. *)
let test_monitor_bounded_memory () =
  let m =
    Health.create_monitor ~objectives:Health.default_objectives ~bucket_ms:100.0
      ~nbuckets:12
  in
  let span = 1200.0 in
  let feed ~t0 lo hi =
    for i = lo to hi - 1 do
      let now_ms =
        t0 +. (10.0 *. span *. float_of_int (i - lo) /. float_of_int (hi - lo))
      in
      Health.record_request m ~now_ms
        ~latency_ms:(float_of_int (i mod 977) *. 0.3)
        ~status:(if i mod 3 = 0 then 500 else 200)
        ~shed:(i mod 5 = 0);
      Health.record_confidence m ~now_ms (float_of_int (i mod 101) /. 100.0)
    done
  in
  feed ~t0:0.0 0 1_000;
  let words = Obj.reachable_words (Obj.repr m) in
  feed ~t0:(10.0 *. span) 1_000 1_000_000;
  Alcotest.(check int) "same reachable words after 10^3 and 10^6 records" words
    (Obj.reachable_words (Obj.repr m))

(* --- Access log --- *)

let test_access_log_line_bytes () =
  let entry =
    {
      Access_log.request_id = "hoiho-1-2";
      endpoint = "GET /geolocate";
      status = 200;
      latency_us = 1234;
      batch = 1;
      cache_hit = true;
      confidence = Some 0.875;
      shed = false;
      degraded = false;
    }
  in
  Alcotest.(check string) "line bytes pinned"
    "{\"request_id\":\"hoiho-1-2\",\"endpoint\":\"GET /geolocate\",\
     \"status\":200,\"latency_us\":1234,\"batch\":1,\"cache_hit\":true,\
     \"confidence\":0.875,\"shed\":false,\"degraded\":false}"
    (Access_log.line_of_entry entry);
  Alcotest.(check string) "absent confidence renders null"
    "{\"request_id\":\"r\",\"endpoint\":\"-\",\"status\":400,\
     \"latency_us\":10,\"batch\":0,\"cache_hit\":false,\"confidence\":null,\
     \"shed\":true,\"degraded\":true}"
    (Access_log.line_of_entry
       {
         Access_log.request_id = "r";
         endpoint = "-";
         status = 400;
         latency_us = 10;
         batch = 0;
         cache_hit = false;
         confidence = None;
         shed = true;
         degraded = true;
       });
  (* each line is one strict-JSON object *)
  match Hoiho_util.Json.parse (Access_log.line_of_entry entry) with
  | Ok (Hoiho_util.Json.Obj fields) ->
      Alcotest.(check int) "nine fields" 9 (List.length fields)
  | Ok _ -> Alcotest.fail "line is not a JSON object"
  | Error e -> Alcotest.failf "line does not parse: %s" e

let entry_for i =
  {
    Access_log.request_id = Printf.sprintf "req-%04d" i;
    endpoint = "GET /geolocate";
    status = 200;
    latency_us = i;
    batch = 1;
    cache_hit = false;
    confidence = None;
    shed = false;
    degraded = false;
  }

let test_access_log_write_and_rotate () =
  let path = Filename.temp_file "hoiho_access" ".log" in
  let read_all p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (match Access_log.create ~max_bytes:1024 path with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok log ->
      let line_len =
        String.length (Access_log.line_of_entry (entry_for 0)) + 1
      in
      let n = (1024 / line_len) + 3 in
      for i = 0 to n - 1 do
        Access_log.log log (entry_for i)
      done;
      Access_log.close log;
      let live = read_all path and rolled = read_all (path ^ ".1") in
      Alcotest.(check bool) "live file under the budget" true
        (String.length live <= 1024);
      Alcotest.(check bool) "rotation happened" true (String.length rolled > 0);
      (* no line lost or torn across the rotation *)
      let lines =
        List.concat_map
          (fun s -> String.split_on_char '\n' (String.trim s))
          [ rolled; live ]
      in
      Alcotest.(check int) "every line survives rotation" n (List.length lines);
      List.iteri
        (fun i line ->
          Alcotest.(check string) "line order preserved"
            (Access_log.line_of_entry (entry_for i))
            line)
        lines);
  Sys.remove path;
  (try Sys.remove (path ^ ".1") with Sys_error _ -> ())

let test_access_log_unwritable () =
  match Access_log.create "/nonexistent-dir/x/access.log" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error for an unwritable path"

(* --- SLO files --- *)

let test_slo_parse_ok () =
  match
    Slo.parse
      {|{"window_s": 10, "buckets": 5,
         "objectives": [
           {"metric": "latency_p99_ms", "max": 250},
           {"metric": "error_rate", "max": 0.05, "fail_ratio": 3.0}]}|}
  with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok t ->
      Alcotest.(check (float 1e-9)) "bucket_ms = 10s/5" 2000.0 t.Slo.bucket_ms;
      Alcotest.(check int) "buckets" 5 t.Slo.nbuckets;
      Alcotest.(check int) "two objectives" 2 (List.length t.Slo.objectives);
      let o = List.nth t.Slo.objectives 1 in
      Alcotest.(check string) "metric" "error_rate" o.Health.metric;
      Alcotest.(check (float 1e-9)) "max" 0.05 o.Health.max_value;
      Alcotest.(check (float 1e-9)) "fail_ratio" 3.0 o.Health.fail_ratio;
      let d = List.hd t.Slo.objectives in
      Alcotest.(check (float 1e-9)) "fail_ratio defaults to 2" 2.0
        d.Health.fail_ratio

let expect_error name s =
  match Slo.parse s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected parse error" name

let test_slo_parse_errors () =
  expect_error "not json" "nope";
  expect_error "objectives missing" {|{"window_s": 60}|};
  expect_error "unknown metric"
    {|{"objectives": [{"metric": "cpu", "max": 1}]}|};
  expect_error "max missing" {|{"objectives": [{"metric": "error_rate"}]}|};
  expect_error "max not positive"
    {|{"objectives": [{"metric": "error_rate", "max": 0}]}|};
  expect_error "fail_ratio <= 1"
    {|{"objectives": [{"metric": "error_rate", "max": 1, "fail_ratio": 1.0}]}|};
  expect_error "bad window" {|{"window_s": -5, "objectives": []}|};
  expect_error "bad buckets" {|{"buckets": 0, "objectives": []}|};
  expect_error "buckets over the limit" {|{"buckets": 121, "objectives": []}|};
  expect_error "a million buckets" {|{"buckets": 1000000, "objectives": []}|};
  (match Slo.parse {|{"buckets": 1000000, "objectives": []}|} with
  | Error e ->
      Alcotest.(check string) "error names the bucket limit"
        "$.buckets: 1000000 exceeds the limit of 120" e
  | Ok _ -> Alcotest.fail "expected error");
  (match Slo.parse {|{"buckets": 120, "objectives": []}|} with
  | Ok t -> Alcotest.(check int) "the limit itself is accepted" 120 t.Slo.nbuckets
  | Error e -> Alcotest.failf "120 buckets: %s" e);
  (* a file over the size limit is refused before it is read *)
  let path = Filename.temp_file "hoiho_slo" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc {|{"objectives": []}|};
          output_string oc (String.make Slo.max_file_bytes ' '));
      match Slo.load path with
      | Error e ->
          Alcotest.(check bool) "error names the size limit" true
            (String.ends_with ~suffix:"exceeds the limit of 65536 for an SLO file" e)
      | Ok _ -> Alcotest.fail "expected an oversized SLO file to be refused");
  (* error text names the offending path *)
  match Slo.parse {|{"objectives": [{"metric": "error_rate", "max": -1}]}|} with
  | Error e ->
      Alcotest.(check bool) "error names the path" true
        (String.length e >= 16 && String.sub e 0 16 = "$.objectives[0].")
  | Ok _ -> Alcotest.fail "expected error"

let suites =
  [
    ( "health-window",
      [
        tc "basic stats" test_window_basic_stats;
        tc "empty window" test_window_empty;
        tc "bucket-boundary timestamps" test_window_bucket_boundary;
        tc "idle gap longer than span" test_window_idle_gap;
        tc "rollover evicts oldest" test_window_rollover_evicts_oldest;
        tc "invalid args" test_window_invalid_args;
        tc "jobs=1 = jobs=4 snapshots" test_window_jobs_invariant;
      ] );
    ( "health-evaluator",
      [
        tc "ok/degraded/failing thresholds" test_evaluate_states;
        tc "failing dominates degraded" test_evaluate_failing_dominates;
        tc "render" test_render;
        tc "clean monitor is Ok on defaults"
          test_default_objectives_clean_server_ok;
        tc "decile histogram and drift" test_decile_histogram_and_drift;
        tc "monitor measurements" test_monitor_measurements;
        tc "drift gating and degraded" test_monitor_drift_gating_and_degraded;
        tc "windowed recovery" test_monitor_recovery;
        tc "monitor memory is bounded" test_monitor_bounded_memory;
      ] );
    ( "access-log",
      [
        tc "line bytes pinned" test_access_log_line_bytes;
        tc "write and rotate" test_access_log_write_and_rotate;
        tc "unwritable path is Error" test_access_log_unwritable;
      ] );
    ( "slo",
      [
        tc "parse ok" test_slo_parse_ok;
        tc "parse errors name paths" test_slo_parse_errors;
      ] );
  ]
