(* The calibration harness: hand-computed Brier/ECE/bucket arithmetic
   on synthetic samples, the monotonicity predicate's tolerance
   semantics, and the headline end-to-end gate — the tiny-preset
   pipeline's confidence scores must calibrate against generator
   ground truth within the acceptance thresholds (ECE <= 0.15,
   monotone decile accuracy at tolerance 0.05). *)

module Calibration = Hoiho_validate.Calibration
module Truth = Hoiho_netsim.Truth
module Pipeline = Hoiho.Pipeline

let tc = Helpers.tc
let feq = Alcotest.(check (float 1e-12))
let sample confidence correct = { Calibration.confidence; correct }

let test_empty () =
  let r = Calibration.of_samples [] in
  Alcotest.(check int) "no samples" 0 r.Calibration.total;
  feq "brier of nothing" 0.0 r.Calibration.brier;
  feq "ece of nothing" 0.0 r.Calibration.ece;
  Alcotest.(check int) "ten deciles always" 10
    (List.length r.Calibration.buckets);
  Alcotest.(check bool) "vacuously monotone" true (Calibration.monotone r)

let test_bucket_edges () =
  (* decile membership is [lo, hi), except the last which includes 1.0 *)
  let r =
    Calibration.of_samples
      [ sample 0.0 false; sample 0.1 true; sample 0.999 true; sample 1.0 true ]
  in
  let n i = (List.nth r.Calibration.buckets i).Calibration.n in
  Alcotest.(check int) "0.0 lands in [0.0,0.1)" 1 (n 0);
  Alcotest.(check int) "0.1 lands in [0.1,0.2), not below" 1 (n 1);
  Alcotest.(check int) "0.999 and 1.0 land in [0.9,1.0]" 2 (n 9)

let test_hand_computed_summaries () =
  (* two in [0.8,0.9): one right, one wrong -> accuracy 0.5, mean 0.8
     one in [0.2,0.3): wrong -> accuracy 0, mean 0.2 *)
  let samples = [ sample 0.8 true; sample 0.8 false; sample 0.2 false ] in
  let r = Calibration.of_samples samples in
  let b8 = List.nth r.Calibration.buckets 8 in
  feq "bucket mean confidence" 0.8 b8.Calibration.mean_confidence;
  feq "bucket accuracy" 0.5 b8.Calibration.accuracy;
  (* brier = ((0.8-1)^2 + (0.8-0)^2 + (0.2-0)^2) / 3 *)
  feq "brier" ((0.04 +. 0.64 +. 0.04) /. 3.0) r.Calibration.brier;
  (* ece = 2/3*|0.5-0.8| + 1/3*|0-0.2| *)
  feq "ece"
    ((2.0 /. 3.0 *. 0.3) +. (1.0 /. 3.0 *. 0.2))
    r.Calibration.ece

let test_perfect_calibration () =
  (* a bucket whose accuracy equals its mean confidence contributes
     zero ECE: 10 samples at 0.7, exactly 7 correct *)
  let samples =
    List.init 10 (fun i -> sample 0.7 (i < 7))
  in
  let r = Calibration.of_samples samples in
  feq "diagonal bucket has zero ece" 0.0 r.Calibration.ece;
  (* brier = (7*(0.3)^2 + 3*(0.7)^2) / 10 *)
  feq "brier at the diagonal"
    (((7.0 *. 0.09) +. (3.0 *. 0.49)) /. 10.0)
    r.Calibration.brier

let test_monotone_tolerance () =
  (* dips within tolerance pass, beyond it fail; empty buckets are
     skipped, not treated as zero-accuracy *)
  let pair lo_acc hi_acc =
    (* two populated deciles: [0.1,0.2) at lo_acc, [0.8,0.9) at hi_acc,
       eight samples each so accuracies are exact eighths *)
    List.init 8 (fun i -> sample 0.15 (float_of_int i /. 8.0 < lo_acc))
    @ List.init 8 (fun i -> sample 0.85 (float_of_int i /. 8.0 < hi_acc))
  in
  Alcotest.(check bool) "rising accuracy passes" true
    (Calibration.monotone (Calibration.of_samples (pair 0.25 0.75)));
  Alcotest.(check bool) "flat accuracy passes" true
    (Calibration.monotone (Calibration.of_samples (pair 0.5 0.5)));
  Alcotest.(check bool) "a large dip fails" false
    (Calibration.monotone (Calibration.of_samples (pair 0.75 0.25)));
  Alcotest.(check bool) "a dip within tolerance passes" true
    (Calibration.monotone ~tolerance:0.51
       (Calibration.of_samples (pair 0.75 0.25)));
  Alcotest.(check bool) "tolerance zero rejects any dip" false
    (Calibration.monotone ~tolerance:0.0
       (Calibration.of_samples (pair 0.625 0.5)))

let test_answered_accounting () =
  let r =
    Calibration.of_samples ~answered:2
      [ sample 0.9 true; sample 0.6 true; sample 0.0 false ]
  in
  Alcotest.(check int) "total counts abstentions" 3 r.Calibration.total;
  Alcotest.(check int) "answered excludes them" 2 r.Calibration.answered

let test_render_text () =
  let r = Calibration.of_samples [ sample 0.85 true; sample 0.85 true ] in
  let text = Calibration.render_text r in
  Alcotest.(check bool) "renders the populated decile" true
    (Helpers.contains text "[0.8,0.9)");
  Alcotest.(check bool) "skips empty deciles" false
    (Helpers.contains text "[0.1,0.2)");
  Alcotest.(check bool) "summary line present" true
    (Helpers.contains text "Brier")

(* --- the headline gate: tiny preset, seed 42, generator truth --- *)

let test_pipeline_gate () =
  let ds, truth =
    Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:42 ())
  in
  let p = Pipeline.run ~db:(Truth.db truth) ds in
  let report =
    Calibration.of_pipeline p truth ~suffixes:(Truth.geo_suffixes truth)
  in
  Alcotest.(check bool) "ground truth is nontrivial" true
    (report.Calibration.total > 500);
  Alcotest.(check bool) "most hostnames answered" true
    (report.Calibration.answered * 2 > report.Calibration.total);
  Alcotest.(check bool)
    (Printf.sprintf "ECE %.4f within the 0.15 acceptance limit"
       report.Calibration.ece)
    true
    (report.Calibration.ece <= 0.15);
  Alcotest.(check bool) "decile accuracy is monotone at tolerance 0.05" true
    (Calibration.monotone report);
  (* abstentions enter as (0.0, false): total strictly exceeds
     answered on this preset, and the first decile is populated *)
  Alcotest.(check bool) "abstentions included" true
    (report.Calibration.total > report.Calibration.answered);
  let b0 = List.hd report.Calibration.buckets in
  Alcotest.(check bool) "zero-confidence decile populated" true
    (b0.Calibration.n >= report.Calibration.total - report.Calibration.answered)

let suites =
  [
    ( "calibration",
      [
        tc "empty input" test_empty;
        tc "bucket edges" test_bucket_edges;
        tc "hand-computed brier and ece" test_hand_computed_summaries;
        tc "perfectly calibrated bucket" test_perfect_calibration;
        tc "monotone tolerance semantics" test_monotone_tolerance;
        tc "answered accounting" test_answered_accounting;
        tc "render_text" test_render_text;
        tc "tiny-preset calibration gate" test_pipeline_gate;
      ] );
  ]
