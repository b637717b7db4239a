(* Unit tests for the smaller core modules: decode plans, candidate
   construction, RTT-consistency context, dictionary access, and the
   phase-4/stage-5 selection rules. *)

module Plan = Hoiho.Plan
module Cand = Hoiho.Cand
module Consist = Hoiho.Consist
module Dicts = Hoiho.Dicts
module Ncsel = Hoiho.Ncsel
module Evalx = Hoiho.Evalx
module Apparent = Hoiho.Apparent
module Regen = Hoiho.Regen
module Ast = Hoiho_rx.Ast
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts

let tc = Helpers.tc
let db = Helpers.db

(* --- Plan --- *)

let test_plan_decode_simple () =
  let plan = [ Plan.Hint Plan.Iata; Plan.Cc ] in
  match Plan.decode plan [| Some "lhr"; Some "uk" |] with
  | Some ex ->
      Alcotest.(check string) "hint" "lhr" ex.Plan.hint;
      Alcotest.(check (option string)) "cc" (Some "uk") ex.Plan.cc;
      Alcotest.(check (option string)) "no state" None ex.Plan.state
  | None -> Alcotest.fail "decode failed"

let test_plan_decode_split_clli () =
  let plan = [ Plan.ClliA; Plan.ClliB; Plan.State ] in
  match Plan.decode plan [| Some "asbn"; Some "va"; Some "va" |] with
  | Some ex ->
      Alcotest.(check string) "concatenated" "asbnva" ex.Plan.hint;
      Alcotest.(check bool) "clli type" true (ex.Plan.hint_type = Plan.Clli)
  | None -> Alcotest.fail "decode failed"

let test_plan_decode_missing_group () =
  let plan = [ Plan.Hint Plan.Iata; Plan.Cc ] in
  Alcotest.(check bool) "unparticipating group" true
    (Plan.decode plan [| Some "lhr"; None |] = None);
  Alcotest.(check bool) "arity mismatch" true (Plan.decode plan [| Some "lhr" |] = None)

let test_plan_hint_type_of () =
  Alcotest.(check bool) "hint" true
    (Plan.hint_type_of [ Plan.Cc; Plan.Hint Plan.Locode ] = Some Plan.Locode);
  Alcotest.(check bool) "split clli" true
    (Plan.hint_type_of [ Plan.ClliA; Plan.ClliB ] = Some Plan.Clli);
  Alcotest.(check bool) "no hint" true (Plan.hint_type_of [ Plan.Cc ] = None)

let test_capture_len () =
  Alcotest.(check (option int)) "iata" (Some 3) (Plan.capture_len Plan.Iata);
  Alcotest.(check (option int)) "clli" (Some 6) (Plan.capture_len Plan.Clli);
  Alcotest.(check (option int)) "city" None (Plan.capture_len Plan.CityName)

(* --- Cand --- *)

let iata_body =
  [
    Cand.Fill Cand.Flabel; Cand.Lit ".";
    Cand.Cap (Plan.Hint Plan.Iata, [ Ast.Rep (Ast.Cls Ast.lower, 3, Some 3, Ast.Greedy) ]);
    Cand.Node (Ast.Rep (Ast.Cls Ast.digit, 1, None, Ast.Greedy));
  ]

let test_cand_build () =
  let c = Cand.build ~suffix:"example.net" iata_body in
  Alcotest.(check string) "source" {|^[^.]+\.([a-z]{3})\d+\.example\.net$|} c.Cand.source;
  Alcotest.(check int) "one-element plan" 1 (List.length c.Cand.plan);
  Alcotest.(check bool) "regex matches" true
    (Hoiho_rx.Engine.matches c.Cand.regex "cr1.lhr15.example.net")

let test_cand_analysis_regex () =
  let c = Cand.build ~suffix:"example.net" iata_body in
  let regex, groups = Cand.analysis_regex c in
  Alcotest.(check int) "two groups: filler + capture" 2 (List.length groups);
  (match groups with
  | [ `Fill 0; `Plan (Plan.Hint Plan.Iata) ] -> ()
  | _ -> Alcotest.fail "unexpected group roles");
  match Hoiho_rx.Engine.exec regex "cr1.lhr15.example.net" with
  | Some [| Some filler; Some hint |] ->
      Alcotest.(check string) "filler text" "cr1" filler;
      Alcotest.(check string) "hint text" "lhr" hint
  | _ -> Alcotest.fail "analysis regex did not match"

let test_cand_dedup () =
  let a = Cand.build ~suffix:"example.net" iata_body in
  let b = Cand.build ~suffix:"example.net" iata_body in
  let c =
    Cand.build ~suffix:"example.net" (Cand.Fill Cand.Flead :: Cand.Lit "." :: iata_body)
  in
  Alcotest.(check int) "duplicates removed" 2 (List.length (Cand.dedup [ a; b; c ]));
  Alcotest.(check bool) "structural equality" true (Cand.equal_structure a b)

(* --- Consist --- *)

let test_consist_prefers_ping () =
  let vps = Helpers.std_vps () in
  let lon = Helpers.city "london" "gb" in
  let tokyo = Helpers.city "tokyo" "jp" in
  (* ping RTTs pin the router near London; a huge traceroute RTT to the
     same VP must not loosen the test *)
  let r =
    Router.make 0
      ~ping_rtts:(Rtts.of_list [ (3, 1.5) ]) (* VP 3 = London *)
      ~trace_rtts:(Rtts.of_list [ (3, 400.0) ])
  in
  let ds = Helpers.dataset [ r ] vps in
  let consist = Consist.create ds in
  Alcotest.(check bool) "london ok" true (Consist.city_consistent consist r lon);
  Alcotest.(check bool) "tokyo excluded by ping" false
    (Consist.city_consistent consist r tokyo)

let test_consist_trace_fallback () =
  let vps = Helpers.std_vps () in
  let tokyo = Helpers.city "tokyo" "jp" in
  let r = Router.make 1 ~trace_rtts:(Rtts.of_list [ (3, 400.0) ]) in
  let ds = Helpers.dataset [ r ] vps in
  let consist = Consist.create ds in
  (* 400 ms from London admits nearly anywhere *)
  Alcotest.(check bool) "trace admits tokyo" true
    (Consist.city_consistent consist r tokyo)

let test_consist_vacuous_without_rtt () =
  let vps = Helpers.std_vps () in
  let r = Router.make 2 in
  let ds = Helpers.dataset [ r ] vps in
  let consist = Consist.create ds in
  Alcotest.(check bool) "no constraint, consistent" true
    (Consist.city_consistent consist r (Helpers.city "tokyo" "jp"))

(* --- Dicts --- *)

let test_dicts_length_gates () =
  Alcotest.(check bool) "iata wrong length" true (Dicts.lookup db Plan.Iata "lond" = []);
  Alcotest.(check bool) "locode wrong length" true (Dicts.lookup db Plan.Locode "gb" = []);
  Alcotest.(check bool) "clli 12 letters" true
    (Dicts.lookup db Plan.Clli "abcdefghijkl" = []);
  Alcotest.(check bool) "clli 8 letters uses prefix" true
    (Dicts.lookup db Plan.Clli "asbnvaxx" <> [])

let test_dicts_region_match () =
  let lon = Helpers.city "london" "gb" in
  Alcotest.(check bool) "uk matches gb city" true (Dicts.cc_matches lon "uk");
  Alcotest.(check bool) "fr does not" false (Dicts.cc_matches lon "fr");
  let ash = Helpers.city_st "ashburn" "us" "va" in
  Alcotest.(check bool) "state" true (Dicts.state_matches ash "va");
  Alcotest.(check bool) "region either" true (Dicts.region_matches ash "us")

(* --- Ncsel --- *)

let samples_for sites =
  let ds, routers, _ = Helpers.suffix_fixture sites in
  let consist = Consist.create ds in
  (consist, Apparent.build_samples consist db ~suffix:"example.net" routers)

let test_ncsel_prefers_fewer_regexes () =
  (* one format: the selected NC should be a single regex even though
     many candidates exist *)
  let consist, samples =
    samples_for
      [ (Helpers.city "london" "gb", "lhr", 3); (Helpers.city "frankfurt" "de", "fra", 3);
        (Helpers.city_st "seattle" "us" "wa", "sea", 3) ]
  in
  let tagged = List.filter (fun (s : Apparent.sample) -> s.Apparent.tags <> []) samples in
  let cands = Regen.candidates ~suffix:"example.net" tagged in
  match Ncsel.build consist db cands samples with
  | Some nc -> Alcotest.(check int) "single regex" 1 (List.length nc.Ncsel.cands)
  | None -> Alcotest.fail "no NC"

let test_ncsel_eval_order () =
  (* eval_nc must attribute each sample to the first matching regex *)
  let consist, samples = samples_for [ (Helpers.city "london" "gb", "lhr", 3) ] in
  let narrow = Cand.build ~suffix:"example.net" iata_body in
  let wide =
    Cand.build ~suffix:"example.net"
      [ Cand.Fill Cand.Flead; Cand.Lit ".";
        Cand.Cap (Plan.Hint Plan.Iata, [ Ast.Rep (Ast.Cls Ast.lower, 3, Some 3, Ast.Greedy) ]);
        Cand.Node (Ast.Rep (Ast.Cls Ast.digit, 1, None, Ast.Greedy)) ]
  in
  let nc = Ncsel.eval_nc consist db [ narrow; wide ] samples in
  Alcotest.(check int) "all samples matched" (List.length samples)
    (nc.Ncsel.counts.Evalx.tp)

let test_classify_thresholds () =
  let mk tp fp unique =
    {
      Ncsel.cands = [];
      counts = { Evalx.tp; fp; fn = 0; unk = 0 };
      hits = [];
      unique_hints = unique;
    }
  in
  Alcotest.(check bool) "good" true (Ncsel.classify (mk 90 5 5) = Ncsel.Good);
  Alcotest.(check bool) "promising" true (Ncsel.classify (mk 85 15 5) = Ncsel.Promising);
  Alcotest.(check bool) "poor ppv" true (Ncsel.classify (mk 70 30 5) = Ncsel.Poor);
  Alcotest.(check bool) "poor unique" true (Ncsel.classify (mk 90 0 2) = Ncsel.Poor);
  Alcotest.(check bool) "usable good" true (Ncsel.usable (Ncsel.classify (mk 90 5 5)));
  Alcotest.(check bool) "usable promising" true
    (Ncsel.usable (Ncsel.classify (mk 85 15 5)));
  Alcotest.(check bool) "not usable poor" false
    (Ncsel.usable (Ncsel.classify (mk 90 0 2)))

let suites =
  [
    ( "core.plan",
      [
        tc "decode simple" test_plan_decode_simple;
        tc "decode split clli" test_plan_decode_split_clli;
        tc "decode missing group" test_plan_decode_missing_group;
        tc "hint_type_of" test_plan_hint_type_of;
        tc "capture lengths" test_capture_len;
      ] );
    ( "core.cand",
      [
        tc "build" test_cand_build;
        tc "analysis regex" test_cand_analysis_regex;
        tc "dedup" test_cand_dedup;
      ] );
    ( "core.consist",
      [
        tc "prefers ping" test_consist_prefers_ping;
        tc "trace fallback" test_consist_trace_fallback;
        tc "vacuous without rtt" test_consist_vacuous_without_rtt;
      ] );
    ( "core.dicts",
      [
        tc "length gates" test_dicts_length_gates;
        tc "region matching" test_dicts_region_match;
      ] );
    ( "core.ncsel",
      [
        tc "prefers fewer regexes" test_ncsel_prefers_fewer_regexes;
        tc "eval order" test_ncsel_eval_order;
        tc "classify thresholds" test_classify_thresholds;
      ] );
  ]
