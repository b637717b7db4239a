module Validate = Hoiho_validate.Validate
module Analysis = Hoiho_validate.Analysis
module Pipeline = Hoiho.Pipeline
module Generate = Hoiho_netsim.Generate
module Presets = Hoiho_netsim.Presets
module City = Hoiho_geodb.City

let tc = Helpers.tc

(* one shared tiny run for the heavier checks *)
let shared = lazy (
  let ds, truth = Generate.generate (Presets.tiny ()) in
  let pipeline = Pipeline.run ds in
  (ds, truth, pipeline))

let test_scores_math () =
  let s = { Validate.tp = 6; fp = 2; fn = 2 } in
  Alcotest.(check int) "total" 10 (Validate.total s);
  Alcotest.(check (float 1e-9)) "tp pct" 60.0 (Validate.tp_pct s);
  Alcotest.(check (float 1e-9)) "fp pct" 20.0 (Validate.fp_pct s);
  Alcotest.(check (float 1e-9)) "fn pct" 20.0 (Validate.fn_pct s);
  Alcotest.(check (float 1e-9)) "ppv" 0.75 (Validate.ppv s)

let test_correct_threshold () =
  let lon = Helpers.city "london" "gb" in
  let fra = Helpers.city "frankfurt" "de" in
  Alcotest.(check bool) "same city" true
    (Validate.correct lon lon.City.coord);
  Alcotest.(check bool) "640 km away" false
    (Validate.correct lon fra.City.coord)

let test_ground_truth_hostnames () =
  let ds, truth, _ = Lazy.force shared in
  let gts = Validate.ground_truth_hostnames ds truth ~suffix:"he.net" in
  Alcotest.(check bool) "nonempty" true (gts <> []);
  List.iter
    (fun (gt : Validate.gt_hostname) ->
      Alcotest.(check bool) "under suffix" true
        (Hoiho_psl.Psl.registered_suffix gt.Validate.hostname = Some "he.net");
      Alcotest.(check bool) "code recorded" true (gt.Validate.code <> ""))
    gts

let test_compare_methods_shape () =
  let _, truth, pipeline = Lazy.force shared in
  let suffixes = Hoiho_netsim.Oper.validation_suffixes in
  let cmps = Validate.compare_methods pipeline truth ~suffixes in
  Alcotest.(check int) "all suffixes" (List.length suffixes) (List.length cmps);
  let avg get =
    List.fold_left (fun a (c : Validate.comparison) -> a +. Validate.tp_pct (get c)) 0.0 cmps
    /. float_of_int (List.length cmps)
  in
  let hoiho = avg (fun c -> c.Validate.hoiho) in
  let hloc = avg (fun c -> c.Validate.hloc) in
  let drop = avg (fun c -> c.Validate.drop) in
  (* the paper's headline ordering must reproduce *)
  Alcotest.(check bool) "hoiho beats hloc" true (hoiho > hloc);
  Alcotest.(check bool) "hoiho beats drop" true (hoiho > drop);
  Alcotest.(check bool) "hoiho high absolute" true (hoiho > 85.0)

let test_undns_high_ppv () =
  let _, truth, pipeline = Lazy.force shared in
  let suffixes = Hoiho_netsim.Oper.validation_suffixes in
  let cmps = Validate.compare_methods pipeline truth ~suffixes in
  let agg get =
    List.fold_left
      (fun (tp, fp) (c : Validate.comparison) ->
        let s = get c in
        (tp + s.Validate.tp, fp + s.Validate.fp))
      (0, 0) cmps
  in
  let ppv (tp, fp) = if tp + fp = 0 then 1.0 else float_of_int tp /. float_of_int (tp + fp) in
  Alcotest.(check bool) "undns ppv >= 95%" true (ppv (agg (fun c -> c.Validate.undns)) >= 0.95);
  (* and it misses far more than hoiho *)
  let fn get =
    List.fold_left (fun a (c : Validate.comparison) -> a + (get c).Validate.fn) 0 cmps
  in
  Alcotest.(check bool) "undns misses more" true
    (fn (fun c -> c.Validate.undns) > fn (fun c -> c.Validate.hoiho))

let test_check_learned () =
  let _, truth, pipeline = Lazy.force shared in
  let suffixes = Hoiho_netsim.Oper.validation_suffixes in
  let checks = Validate.check_learned pipeline truth ~suffixes in
  Alcotest.(check bool) "learned several" true (List.length checks >= 8);
  let ok = List.length (List.filter (fun (c : Validate.learned_check) -> c.Validate.ok) checks) in
  let frac = float_of_int ok /. float_of_int (List.length checks) in
  (* the paper reports 78.6%; well above half and below perfection *)
  Alcotest.(check bool) "mostly but not all correct" true (frac >= 0.6 && frac <= 1.0)

(* --- Analysis --- *)

let test_coverage () =
  let ds, _, pipeline = Lazy.force shared in
  let c = Analysis.coverage pipeline in
  Alcotest.(check int) "total" (Hoiho_itdk.Dataset.n_routers ds) c.Analysis.total;
  Alcotest.(check bool) "apparent <= named" true (c.Analysis.with_apparent <= c.Analysis.with_hostname);
  Alcotest.(check bool) "geolocated <= apparent" true (c.Analysis.geolocated <= c.Analysis.with_apparent);
  Alcotest.(check bool) "geolocated is most of apparent" true
    (float_of_int c.Analysis.geolocated /. float_of_int c.Analysis.with_apparent > 0.6)

let test_classifications () =
  let _, _, pipeline = Lazy.force shared in
  let k = Analysis.classifications pipeline in
  Alcotest.(check bool) "good NCs exist" true (k.Analysis.good > 0);
  Alcotest.(check bool) "poor NCs exist" true (k.Analysis.poor > 0)

let test_table4 () =
  let _, _, pipeline = Lazy.force shared in
  let rows, _mixed = Analysis.table4 pipeline in
  Alcotest.(check bool) "rows exist" true (rows <> []);
  let total =
    List.fold_left (fun a (r : Analysis.type_breakdown) -> a + r.Analysis.n_good + r.Analysis.n_promising) 0 rows
  in
  let k = Analysis.classifications pipeline in
  Alcotest.(check int) "rows account for all usable NCs" (k.Analysis.good + k.Analysis.promising) total

let test_fig5 () =
  let ds, _, _ = Lazy.force shared in
  let a = Analysis.fig5a ds in
  Alcotest.(check bool) "cdf monotone" true
    (List.for_all2
       (fun (_, p1, t1) (_, p2, t2) -> p2 >= p1 && t2 >= t1)
       (List.filteri (fun i _ -> i < List.length a - 1) a)
       (List.tl a));
  (* ping constrains more tightly than traceroute at every threshold *)
  List.iter (fun (_, ping, trace) ->
      Alcotest.(check bool) "ping cdf >= trace cdf" true (ping >= trace -. 1e-9)) a;
  let b = Analysis.fig5b ds in
  Alcotest.(check bool) "fig5b rows" true (b <> [])

let test_fig10_fig11 () =
  let _, truth, pipeline = Lazy.force shared in
  let a = Analysis.fig10a pipeline in
  Alcotest.(check bool) "proximities finite" true
    (List.for_all (fun x -> x >= 0.0 && x < 1000.0) a);
  let b = Analysis.fig10b pipeline in
  (* learned hints that collide with airport codes are mostly far from
     the airport (figure 10b: 93.5% beyond 1000 km) *)
  Alcotest.(check bool) "collisions are distant" true
    (List.exists (fun d -> d > 1000.0) b);
  let entries = Analysis.fig11 pipeline truth ~suffixes:Hoiho_netsim.Oper.validation_suffixes in
  Alcotest.(check bool) "fig11 entries" true (entries <> []);
  Alcotest.(check bool) "accuracy in [0,1]" true
    (let acc = Analysis.accuracy_at 10.0 entries in
     acc >= 0.0 && acc <= 1.0)

let test_table5 () =
  let _, _, pipeline = Lazy.force shared in
  let rows = Analysis.table5 ~top:10 pipeline in
  Alcotest.(check bool) "has learned 3-letter hints" true (rows <> []);
  List.iter
    (fun (r : Analysis.learned_freq) ->
      Alcotest.(check int) "3 letters" 3 (String.length r.Analysis.hint))
    rows

let test_ablation_shape () =
  let ds, truth, _ = Lazy.force shared in
  let a = Analysis.ablation ds truth ~suffixes:Hoiho_netsim.Oper.validation_suffixes in
  (* learning geohints must improve correct geolocations (§6.1: 94.0% vs 82.4%) *)
  Alcotest.(check bool) "learning helps" true
    (a.Analysis.with_learning.Validate.tp > a.Analysis.without_learning.Validate.tp)

let suites =
  [
    ( "validate",
      [
        tc "scores math" test_scores_math;
        tc "correct threshold" test_correct_threshold;
        tc "ground truth hostnames" test_ground_truth_hostnames;
        tc "compare methods shape" test_compare_methods_shape;
        tc "undns high ppv" test_undns_high_ppv;
        tc "check learned" test_check_learned;
      ] );
    ( "analysis",
      [
        tc "coverage" test_coverage;
        tc "classifications" test_classifications;
        tc "table4" test_table4;
        tc "fig5" test_fig5;
        tc "fig10/fig11" test_fig10_fig11;
        tc "table5" test_table5;
        tc "ablation" test_ablation_shape;
      ] );
  ]
