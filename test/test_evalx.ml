module Apparent = Hoiho.Apparent
module Regen = Hoiho.Regen
module Evalx = Hoiho.Evalx
module Cand = Hoiho.Cand
module Consist = Hoiho.Consist
module Plan = Hoiho.Plan
module Learned = Hoiho.Learned
module Ast = Hoiho_rx.Ast

let tc = Helpers.tc
let db = Helpers.db

(* a hand-built candidate: ^[^\.]+\.[^\.]+\.([a-z]{3})\d+\.example\.net$ *)
let iata_cand =
  Cand.build ~suffix:"example.net"
    [
      Cand.Fill Cand.Flabel; Cand.Lit "."; Cand.Fill Cand.Flabel; Cand.Lit ".";
      Cand.Cap (Plan.Hint Plan.Iata, [ Ast.Rep (Ast.Cls Ast.lower, 3, Some 3, Ast.Greedy) ]);
      Cand.Node (Ast.Rep (Ast.Cls Ast.digit, 1, None, Ast.Greedy));
    ]

(* same, but also captures a trailing country code *)
let iata_cc_cand =
  Cand.build ~suffix:"example.net"
    [
      Cand.Fill Cand.Flabel; Cand.Lit "."; Cand.Fill Cand.Flabel; Cand.Lit ".";
      Cand.Cap (Plan.Hint Plan.Iata, [ Ast.Rep (Ast.Cls Ast.lower, 3, Some 3, Ast.Greedy) ]);
      Cand.Node (Ast.Rep (Ast.Cls Ast.digit, 1, None, Ast.Greedy));
      Cand.Lit ".";
      Cand.Cap (Plan.Cc, [ Ast.Rep (Ast.Cls Ast.lower, 2, Some 2, Ast.Greedy) ]);
    ]

let sample_of ~at hostname =
  let vps = Helpers.std_vps () in
  let r = Helpers.router ~id:0 ~at ~vps ~hostnames:[ hostname ] () in
  let ds = Helpers.dataset [ r ] vps in
  let consist = Consist.create ds in
  match Apparent.tag_hostname consist db ~suffix:"example.net" r hostname with
  | Some s -> (consist, s)
  | None -> Alcotest.fail "fixture tagging failed"

let outcome_name = function
  | Evalx.TP -> "TP"
  | Evalx.FP -> "FP"
  | Evalx.FN -> "FN"
  | Evalx.UNK -> "UNK"
  | Evalx.Skip -> "Skip"

let check_outcome cand ~at hostname expected () =
  let consist, sample = sample_of ~at hostname in
  let hit = Evalx.eval_sample consist db cand sample in
  Alcotest.(check string) (hostname ^ " outcome") (outcome_name expected)
    (outcome_name hit.Evalx.outcome)

let lon = Helpers.city "london" "gb"
let tokyo = Helpers.city "tokyo" "jp"

let test_tp = check_outcome iata_cand ~at:lon "ae1.cr1.lhr15.example.net" Evalx.TP

let test_fp_stale =
  (* the hostname claims heathrow but the router is in tokyo *)
  check_outcome iata_cand ~at:tokyo "ae1.cr1.lhr15.example.net" Evalx.FP

let test_unk = check_outcome iata_cand ~at:lon "ae1.cr1.qqz15.example.net" Evalx.UNK

let test_fn_no_match =
  (* geohint tagged but the regex shape (needs digits) does not match *)
  check_outcome iata_cand ~at:lon "ae1.cr1.lhr.example.net" Evalx.FN

let test_skip =
  check_outcome iata_cand ~at:lon "ae1.cr1.xyz9abc.example.net" Evalx.Skip

let test_fn_missing_cc () =
  (* the apparent geohint includes "uk"; a regex that drops it is FN *)
  let consist, sample = sample_of ~at:lon "ae1.cr1.lhr15.uk.example.net" in
  let hit = Evalx.eval_sample consist db iata_cc_cand sample in
  Alcotest.(check string) "cc-capturing regex is TP" "TP" (outcome_name hit.Evalx.outcome);
  (* a regex matching the same hostname without extracting the cc *)
  let no_cc =
    Cand.build ~suffix:"example.net"
      [
        Cand.Fill Cand.Flabel; Cand.Lit "."; Cand.Fill Cand.Flabel; Cand.Lit ".";
        Cand.Cap (Plan.Hint Plan.Iata, [ Ast.Rep (Ast.Cls Ast.lower, 3, Some 3, Ast.Greedy) ]);
        Cand.Node (Ast.Rep (Ast.Cls Ast.digit, 1, None, Ast.Greedy));
        Cand.Lit "."; Cand.Fill Cand.Flabel;
      ]
  in
  let hit = Evalx.eval_sample consist db no_cc sample in
  Alcotest.(check string) "dropping the cc is FN" "FN" (outcome_name hit.Evalx.outcome)

let test_counts_and_metrics () =
  let c = Evalx.zero in
  let c = Evalx.add_outcome c Evalx.TP in
  let c = Evalx.add_outcome c Evalx.TP in
  let c = Evalx.add_outcome c Evalx.FP in
  let c = Evalx.add_outcome c Evalx.FN in
  let c = Evalx.add_outcome c Evalx.UNK in
  let c = Evalx.add_outcome c Evalx.Skip in
  Alcotest.(check int) "tp" 2 c.Evalx.tp;
  Alcotest.(check int) "atp" (-1) (Evalx.atp c);
  Alcotest.(check (float 1e-9)) "ppv" (2.0 /. 3.0) (Evalx.ppv c);
  Alcotest.(check (float 1e-9)) "empty ppv" 0.0 (Evalx.ppv Evalx.zero)

let test_eval_cand_aggregates () =
  let vps = Helpers.std_vps () in
  let fra = Helpers.city "frankfurt" "de" in
  let routers =
    [
      Helpers.router ~id:0 ~at:lon ~vps ~hostnames:[ "ae1.cr1.lhr15.example.net" ] ();
      Helpers.router ~id:1 ~at:fra ~vps ~hostnames:[ "ae1.cr1.fra2.example.net" ] ();
    ]
  in
  let ds = Helpers.dataset routers vps in
  let consist = Consist.create ds in
  let samples = Apparent.build_samples consist db ~suffix:"example.net" routers in
  let counts = Evalx.eval_cand_counts consist db iata_cand samples in
  let hits = List.map (Evalx.eval_sample consist db iata_cand) samples in
  Alcotest.(check int) "both TP" 2 counts.Evalx.tp;
  Alcotest.(check (list string)) "unique hints" [ "fra"; "lhr" ]
    (Evalx.unique_tp_hints hits)

let test_resolve_overlay () =
  let learned = Learned.empty () in
  let ashburn = Helpers.city_st "ashburn" "us" "va" in
  Learned.add learned
    { Learned.hint = "ash"; hint_type = Plan.Iata; city = ashburn; tp = 4; fp = 0; collides = true };
  let ex = { Plan.hint = "ash"; hint_type = Plan.Iata; cc = None; state = None } in
  (match Evalx.resolve_explained db ~learned ex with
  | [ c ], Evalx.Overlay -> Alcotest.check Helpers.check_city "overlay wins" ashburn c
  | _ -> Alcotest.fail "expected exactly the learned city, from the overlay");
  (* without the overlay, the dictionary interpretation (Nashua) rules *)
  match Evalx.resolve_explained db ex with
  | [ c ], Evalx.Dictionary ->
      Alcotest.(check string) "dictionary" "nashua" c.Hoiho_geodb.City.name
  | _ -> Alcotest.fail "expected nashua, from the dictionary"

let test_resolve_cc_filter () =
  (* "washington" with state=dc narrows to the capital *)
  let ex =
    { Plan.hint = "washington"; hint_type = Plan.CityName; cc = None; state = Some "dc" }
  in
  (match fst (Evalx.resolve_explained db ex) with
  | [ c ] -> Alcotest.(check (option string)) "dc" (Some "dc") c.Hoiho_geodb.City.state
  | cities -> Alcotest.failf "expected 1 city, got %d" (List.length cities));
  (* a cc that matches nothing falls back to the unfiltered set *)
  let ex2 =
    { Plan.hint = "washington"; hint_type = Plan.CityName; cc = Some "jp"; state = None }
  in
  Alcotest.(check bool) "fallback" true
    (List.length (fst (Evalx.resolve_explained db ex2)) > 1)

let suites =
  [
    ( "evalx",
      [
        tc "tp" test_tp;
        tc "fp stale" test_fp_stale;
        tc "unk" test_unk;
        tc "fn no match" test_fn_no_match;
        tc "skip" test_skip;
        tc "fn missing cc" test_fn_missing_cc;
        tc "counts and metrics" test_counts_and_metrics;
        tc "eval_cand aggregates" test_eval_cand_aggregates;
        tc "resolve overlay" test_resolve_overlay;
        tc "resolve cc filter" test_resolve_cc_filter;
      ] );
  ]
