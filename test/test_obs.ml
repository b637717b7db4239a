module Obs = Hoiho_obs.Obs
module Histo = Hoiho_obs.Histo
module Pool = Hoiho_obs.Pool
module Json = Hoiho_util.Json

let tc = Helpers.tc

let q ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= hn && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_counter_basics () =
  let c = Obs.counter "test.obs.counter_basics" in
  Obs.set_counter c 0;
  Obs.incr c;
  Obs.add c 4;
  Alcotest.(check int) "incr + add" 5 (Obs.count c);
  (* registration is idempotent: the same name is the same cell *)
  Obs.incr (Obs.counter "test.obs.counter_basics");
  Alcotest.(check int) "same name same cell" 6 (Obs.count c)

let test_counter_parallel () =
  (* counters must be exact under the domain pool, not approximately
     right: 8 lanes x 4000 bumps, no lost updates *)
  let c = Obs.counter "test.obs.counter_parallel" in
  Obs.set_counter c 0;
  let pool = Pool.get 8 in
  Pool.parallel_for pool 32 (fun _ ->
      for _ = 1 to 1000 do
        Obs.incr c
      done);
  Alcotest.(check int) "no lost updates" 32_000 (Obs.count c)

let test_gauge_high_water () =
  let g = Obs.gauge "test.obs.gauge" in
  Obs.observe_gauge g 3;
  Obs.observe_gauge g 9;
  Obs.observe_gauge g 5;
  Alcotest.(check int) "keeps the max" 9 (Obs.gauge_value g)

let test_histogram_stats () =
  let h = Obs.histogram "test.obs.histogram" in
  List.iter (Obs.observe h) (List.map float_of_int [ 5; 1; 2; 3; 4 ]);
  let snap = Obs.snapshot () in
  match Obs.find_histogram snap "test.obs.histogram" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
      Alcotest.(check int) "count" 5 s.Histo.n;
      Alcotest.(check bool) "p50 within 1/16 above 3.0" true
        (s.Histo.p50 >= 3.0 && s.Histo.p50 <= 3.0 *. (1.0 +. (1.0 /. 16.0)));
      Alcotest.(check (float 1e-9)) "p95" 5.0 s.Histo.p95;
      Alcotest.(check (float 1e-9)) "p99" 5.0 s.Histo.p99;
      Alcotest.(check (float 1e-9)) "max" 5.0 s.Histo.max;
      Alcotest.(check (float 1e-9)) "total" 15.0 s.Histo.sum

let test_time_span () =
  let h = Obs.histogram "test.obs.time_span" in
  let v = Obs.time h (fun () -> 42) in
  Alcotest.(check int) "returns the thunk's value" 42 v;
  (* a raising thunk still records its span *)
  (try Obs.time h (fun () -> failwith "boom") with Failure _ -> ());
  let snap = Obs.snapshot () in
  match Obs.find_histogram snap "test.obs.time_span" with
  | Some s ->
      Alcotest.(check int) "both spans recorded" 2 s.Histo.n;
      Alcotest.(check bool) "durations non-negative" true (s.Histo.p50 >= 0.0)
  | None -> Alcotest.fail "histogram missing"

let test_snapshot_sorted_and_json () =
  let _ = Obs.counter "test.obs.json_b" and _ = Obs.counter "test.obs.json_a" in
  let snap = Obs.snapshot () in
  let names = List.map fst snap.Obs.counters in
  Alcotest.(check bool) "counters sorted by name" true
    (names = List.sort compare names);
  let json = Obs.to_json snap in
  Alcotest.(check bool) "json has counters section" true
    (Json.member "counters" json <> None);
  Alcotest.(check bool) "json has histograms section" true
    (Json.member "histograms" json <> None);
  Alcotest.(check bool) "json names the counter" true
    (Option.bind (Json.member "counters" json) (Json.member "test.obs.json_a")
    <> None);
  Alcotest.(check bool) "json round-trips through the parser" true
    (match Json.parse (Json.to_string json) with
    | Ok j -> Json.equal j json
    | Error _ -> false)

let test_find_counter () =
  let c = Obs.counter "test.obs.find" in
  Obs.set_counter c 7;
  let snap = Obs.snapshot () in
  Alcotest.(check (option int)) "present" (Some 7)
    (Obs.find_counter snap "test.obs.find");
  Alcotest.(check (option int)) "absent" None
    (Obs.find_counter snap "test.obs.nonexistent")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the serving-boundary bugfix for periodic exposition: stop_emitter
   joins the emitter domain BEFORE the final write, and both the
   periodic and the end-of-run paths go through the same atomic
   write_openmetrics — so the final file is identical whether an
   emitter ran or not, and always carries the run's closing values *)
let test_emitter_final_write () =
  let c = Obs.counter "test.obs.emitter_final" in
  Obs.set_counter c 0;
  let with_om = Filename.temp_file "hoiho_obs" ".om" in
  let without_om = Filename.temp_file "hoiho_obs" ".om" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ with_om; without_om ])
    (fun () ->
      (* emitter path: bump the counter after the last periodic write
         could possibly have seen it, then stop — the final write must
         still capture the closing value *)
      let e = Obs.start_emitter ~period_s:0.05 ~path:with_om () in
      Unix.sleepf 0.12;
      Obs.add c 41;
      Obs.incr c;
      Obs.stop_emitter e;
      (* no-emitter path: the same single writer, called once *)
      Obs.write_openmetrics without_om;
      let a = read_file with_om and b = read_file without_om in
      Alcotest.(check string) "same final file with and without emitter" b a;
      Alcotest.(check bool) "file is complete (# EOF)" true
        (String.length a >= 6
        && String.sub a (String.length a - 6) 6 = "# EOF\n");
      Alcotest.(check bool) "closing counter value present" true
        (contains a "hoiho_test_obs_emitter_final_total 42"))

(* a writer that raises midway must leave the previous file as it was
   and no tmp sibling behind *)
let test_atomic_writer_raises () =
  let path = Filename.temp_file "hoiho_obs" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.write_file_atomic path "previous contents\n";
      Alcotest.check_raises "the writer's exception propagates" (Failure "boom")
        (fun () ->
          Obs.write_channel_atomic path (fun oc ->
              output_string oc "half a new fi";
              failwith "boom"));
      Alcotest.(check string) "previous file byte-identical" "previous contents\n"
        (read_file path);
      let base = Filename.basename path ^ ".tmp." in
      let siblings =
        Array.to_list (Sys.readdir (Filename.dirname path))
        |> List.filter (fun f -> String.starts_with ~prefix:base f)
      in
      Alcotest.(check (list string)) "no tmp sibling left" [] siblings;
      Alcotest.(check int) "a writer's result is returned" 7
        (Obs.write_channel_atomic path (fun oc -> output_string oc "new\n"; 7));
      Alcotest.(check string) "a finished write lands" "new\n" (read_file path))

(* memory is constant per histogram: 10^6 records hold exactly as many
   words as 10^3 (both have boxed [max]; an empty histogram has not) *)
let test_histogram_bounded () =
  let h = Obs.histogram "test.obs.bounded" in
  let feed lo hi =
    for i = lo to hi - 1 do
      Obs.observe h (float_of_int (i mod 5003) *. 0.37)
    done
  in
  feed 0 1_000;
  let words = Obj.reachable_words (Obj.repr h) in
  feed 1_000 1_000_000;
  Alcotest.(check int) "same reachable words after 10^3 and 10^6 records" words
    (Obj.reachable_words (Obj.repr h))

(* --- Histo against the sort-based statistics it replaced --- *)

(* the parent's nearest-rank percentile over a sorted copy, kept here
   as the reference *)
let sorted_percentile sorted n p =
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 1 (min n rank) - 1)

(* log-uniform over [1e-3, 1e6] ms, with repeats drawn from a small
   pool and zeros *)
let gen_samples =
  QCheck.Gen.(
    let log_uniform = map (fun e -> 10.0 ** e) (float_range (-3.0) 6.0) in
    list_size (int_range 1 20) log_uniform >>= fun pool ->
    list_size (int_range 1 500)
      (frequency [ (6, log_uniform); (3, oneofl pool); (1, return 0.0) ]))

let arb_samples =
  QCheck.make ~print:QCheck.Print.(list (fun f -> Printf.sprintf "%.17g" f)) gen_samples

let prop_histo_vs_sorted xs =
  let h = Histo.create () in
  List.iter (Histo.record h) xs;
  let sorted = Array.of_list xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let s = Histo.stats h in
  let check name p got =
    let exact = sorted_percentile sorted n p in
    if not (got >= exact && got <= exact *. (1.0 +. (1.0 /. 16.0))) then
      QCheck.Test.fail_reportf "%s: %.17g against exact %.17g" name got exact
  in
  check "p50" 50.0 s.Histo.p50;
  check "p95" 95.0 s.Histo.p95;
  check "p99" 99.0 s.Histo.p99;
  let exact_sum = Array.fold_left ( +. ) 0.0 sorted in
  if Float.abs (s.Histo.sum -. exact_sum) > 1e-6 *. float_of_int n then
    QCheck.Test.fail_reportf "sum %.17g against %.17g" s.Histo.sum exact_sum;
  s.Histo.n = n && s.Histo.max = sorted.(n - 1)

(* the rule Confidence, Calibration and Health each spelled out before
   Histo.decile: clamp into [0,1], floor the tenths, cap at 9 *)
let old_decile c = min 9 (int_of_float (Float.max 0.0 (Float.min 1.0 c) *. 10.0))

let rec step x d =
  if d > 0 then step (Float.succ x) (d - 1)
  else if d < 0 then step (Float.pred x) (d + 1)
  else x

(* random doubles in [0,1], +-1000 ulps around each k/10 (0.0 and 1.0
   included), and the witness below the 0.9 edge *)
let gen_confidence =
  QCheck.Gen.(
    frequency
      [
        (4, float_bound_inclusive 1.0);
        ( 5,
          map2
            (fun k d -> step (float_of_int k /. 10.0) d)
            (int_range 0 10) (int_range (-1000) 1000) );
        (1, oneofl [ 0.0; 1.0; Float.pred 0.9 ]);
      ])

let prop_one_decile_rule c =
  let h = Histo.create () in
  Histo.record h c;
  let k = Histo.decile c in
  let masses = Histo.deciles h in
  k = old_decile c && masses.(k) = 1.0 && Array.fold_left ( +. ) 0.0 masses = 1.0

let test_decile_witness () =
  let c = Float.pred 0.9 in
  Alcotest.(check bool) "the witness lies below 0.9" true (c < 0.9);
  Alcotest.(check int) "floor (c * 10) = 9 puts it in decile 9" 9 (Histo.decile c);
  Alcotest.(check int) "0.9 itself" 9 (Histo.decile 0.9);
  Alcotest.(check int) "1.0 closes the top decile" 9 (Histo.decile 1.0);
  Alcotest.(check int) "negatives clamp to 0" 0 (Histo.decile (-0.3));
  Alcotest.(check int) "above 1 clamps to 9" 9 (Histo.decile 1.7)

let test_histo_merge () =
  let xs = List.init 300 (fun i -> float_of_int ((i * 7919) mod 1000) /. 7.0) in
  let all = Histo.create () and a = Histo.create () and b = Histo.create () in
  List.iteri
    (fun i x ->
      Histo.record all x;
      Histo.record (if i mod 3 = 0 then a else b) x)
    xs;
  let merged = Histo.create () in
  Histo.merge_into ~into:merged b;
  Histo.merge_into ~into:merged a;
  Alcotest.(check bool) "merge = recording everything in one" true
    (Histo.stats merged = Histo.stats all && Histo.deciles merged = Histo.deciles all);
  Histo.clear merged;
  Alcotest.(check bool) "clear empties" true
    (Histo.stats merged = Histo.stats (Histo.create ()))

let suites =
  [
    ( "obs",
      [
        tc "counter basics" test_counter_basics;
        tc "counter exact under pool" test_counter_parallel;
        tc "gauge high-water" test_gauge_high_water;
        tc "histogram stats" test_histogram_stats;
        tc "time span" test_time_span;
        tc "snapshot sorted + json" test_snapshot_sorted_and_json;
        tc "find counter" test_find_counter;
        tc "emitter final write is the shared atomic writer"
          test_emitter_final_write;
        tc "a raising writer leaves the previous file" test_atomic_writer_raises;
        tc "histogram memory is bounded" test_histogram_bounded;
      ] );
    ( "obs.histo",
      [
        q ~count:2000 "percentiles within 1/16 above the sorted reference"
          arb_samples prop_histo_vs_sorted;
        q ~count:5000 "one decile rule, exact decile masses"
          (QCheck.make ~print:(Printf.sprintf "%.17g") gen_confidence)
          prop_one_decile_rule;
        tc "decile witness below 0.9" test_decile_witness;
        tc "merge is recording in one" test_histo_merge;
      ] );
  ]
