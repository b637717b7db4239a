module Ast = Hoiho_rx.Ast
module Parse = Hoiho_rx.Parse
module Engine = Hoiho_rx.Engine

let tc = Helpers.tc

let exec_str re s =
  let t = Engine.compile_exn re in
  match Engine.exec t s with
  | None -> None
  | Some arr ->
      Some
        (String.concat ","
           (Array.to_list arr |> List.map (function None -> "_" | Some x -> x)))

let check_match re s expected () =
  Alcotest.(check (option string)) (re ^ " on " ^ s) expected (exec_str re s)

(* --- parser --- *)

let test_parse_errors () =
  let bad =
    [
      "a{2,1}"; "("; ")"; "[abc"; "*a"; "a{"; "\\"; "a|*";
      (* counts past max_int, and past the bound that keeps an
         empty-iteration repetition off the matcher's stack *)
      "a{99999999999999999999}";
      "a{1,99999999999999999999}";
      Printf.sprintf "^(a?){%d}b$" (Parse.max_count + 1);
    ]
  in
  List.iter
    (fun re ->
      match Parse.parse re with
      | Ok _ -> Alcotest.failf "expected parse error for %S" re
      | Error _ -> ()
      | exception e -> Alcotest.failf "%S raised %s" re (Printexc.to_string e))
    bad;
  Alcotest.(check bool) "the count bound is within the subject bound" true
    (Parse.max_count <= Engine.max_subject_len);
  check_match (Printf.sprintf "^(a?){%d}b$" Parse.max_count) "b" (Some "") ()

let test_parse_roundtrip () =
  let res =
    [
      {|^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$|};
      {|^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$|};
      {|^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]++\.alter\.net$|};
      {|^(a|bb|ccc)x?$|};
      {|[a-z]{2,4}|};
      {|(?:ab|cd)+|};
    ]
  in
  List.iter
    (fun re ->
      let ast = Parse.parse_exn re in
      let printed = Ast.to_string ast in
      let ast2 = Parse.parse_exn printed in
      Alcotest.(check bool) (re ^ " roundtrip") true (Ast.equal ast ast2))
    res

let test_group_count () =
  let count re = Engine.group_count (Engine.compile_exn re) in
  Alcotest.(check int) "none" 0 (count "abc");
  Alcotest.(check int) "two" 2 (count {|(a)(b)|});
  Alcotest.(check int) "nested" 2 (count {|((a)b)|});
  Alcotest.(check int) "in alternation" 2 (count {|(a)|(b)|})

(* --- matching semantics --- *)

let test_literal = check_match "abc" "xabcy" (Some "")
let test_literal_fail = check_match "abc" "abd" None
let test_anchors_pin = check_match "^abc$" "abc" (Some "")
let test_anchor_start_fail = check_match "^bc$" "abc" None
let test_anchor_end_fail = check_match "^ab$" "abc" None
let test_dot = check_match "^a.c$" "axc" (Some "")
let test_dot_no_empty = check_match "^a.c$" "ac" None
let test_class = check_match "^[a-c]+$" "abcba" (Some "")
let test_class_fail = check_match "^[a-c]+$" "abd" None
let test_neg_class = check_match {|^[^\.]+$|} "ab-c" (Some "")
let test_neg_class_fail = check_match {|^[^\.]+$|} "a.c" None
let test_digit_escape = check_match {|^\d{3}$|} "123" (Some "")
let test_digit_escape_fail = check_match {|^\d{3}$|} "12x" None
let test_question = check_match {|^ab?c$|} "ac" (Some "")
let test_question2 = check_match {|^ab?c$|} "abc" (Some "")
let test_star_empty = check_match {|^a*$|} "" (Some "")
let test_plus_needs_one = check_match {|^a+$|} "" None
let test_bounded_rep = check_match {|^a{2,3}$|} "aa" (Some "")
let test_bounded_rep2 = check_match {|^a{2,3}$|} "aaaa" None
let test_open_rep = check_match {|^a{2,}$|} "aaaaa" (Some "")
let test_exact_rep_fail = check_match {|^[a-z]{3}$|} "ab" None

let test_alternation = check_match {|^(cat|dog)$|} "dog" (Some "dog")
let test_alternation_order = check_match {|^(a|ab)c$|} "abc" (Some "ab")
let test_nested_groups = check_match {|^((a+)(b+))$|} "aabb" (Some "aabb,aa,bb")
let test_unused_branch_group = check_match {|^(a)|(b)$|} "a" (Some "a,_")

let test_backtracking = check_match {|^(.+)\.([a-z]+)$|} "a.b.c" (Some "a.b,c")
let test_greedy = check_match {|^([a-z]+)([a-z])$|} "abcd" (Some "abc,d")

let test_possessive_blocks_backtrack = check_match {|^[a-z]++z$|} "abcz" None
let test_possessive_ok = check_match {|^[a-z]++\d$|} "abc1" (Some "")
let test_possessive_star = check_match {|^a*+b$|} "aaab" (Some "")

(* regression: a possessive repetition over a capture group must not
   take the group-stripping fast path — the group records the last
   consumed char (possessiveness degrades to greedy, captures intact) *)
let test_possessive_group_captures = check_match {|^([a-z])++$|} "abc" (Some "c")
let test_possessive_group_captures2 = check_match {|^([a-z])++\d$|} "abc1" (Some "c")

let test_possessive_nested_group_captures =
  check_match {|^(([a-z])([a-z]))++$|} "abcd" (Some "cd,c,d")

(* iterations that match nothing: one counts toward the minimum, and
   once the minimum is met it ends the repetition, keeping its own
   captures. The expected captures are what Python's re returns. *)
let empty_iteration_cases =
  [
    ({|^(a*)+b$|}, "b", Some "");
    ({|^(a*)+b$|}, "aab", Some "");
    ({|^(a?){2}b$|}, "ab", Some "");
    ({|^(a?){2}b$|}, "b", Some "");
    ({|^(?:a|)+b$|}, "b", Some "");
    ({|^((a)|)+b$|}, "ab", Some ",a");
    ({|^((a)|)+b$|}, "b", Some ",_");
    ({|^(?:(a)|b?)+c$|}, "abc", Some "a");
  ]

let test_empty_iterations () =
  List.iter (fun (re, s, expected) -> check_match re s expected ()) empty_iteration_cases

let test_unanchored_search = check_match {|b+|} "aabbaa" (Some "")
let test_empty_pattern = check_match "" "anything" (Some "")

(* the paper's published regexes (figure 7) *)
let paper_cases =
  [
    ( {|^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$|},
      "zayo-ntt.mpr1.lhr15.uk.zip.zayo.com", Some "lhr,uk" );
    ( {|^.+\.([a-z]+)\d*\.level3\.net$|},
      "ae-2-52.edge1.brussels1.level3.net", Some "brussels" );
    ( {|^.+\.([a-z]{6})\d+\.([a-z]{2})\.[a-z]{2}\.gin\.ntt\.net$|},
      "xe-0-0-28-0.a02.snjsca04.us.ce.gin.ntt.net", Some "snjsca,us" );
    ( {|^.+\.([a-z]{4})\d+-([a-z]{2})\.([a-z]{2})\.windstream\.net$|},
      "ae4-0.agr01.ashb1-va.va.windstream.net", Some "ashb,va,va" );
    ( {|^[^\.]+\.(\d+[a-z]+)\.([a-z]{2})\.[a-z]+\.comcast\.net$|},
      "be-107-pe12.111eighthave.ny.ibone.comcast.net", Some "111eighthave,ny" );
    ( {|^[^\.]+\.[^\.]+\.([a-z]{6})[a-z\d]+-[a-z]+\d+-[^\.]+\.alter\.net$|},
      "0.af0.rcmdva83-mse01-a-ie1.alter.net", Some "rcmdva" );
  ]

let test_paper_regexes () =
  List.iter
    (fun (re, s, expected) ->
      Alcotest.(check (option string)) (re ^ " on " ^ s) expected (exec_str re s))
    paper_cases

let test_paper_negative () =
  (* DRoP's simplistic 360.net rule (figure 2) should not match deeper names *)
  let re = {|^([a-z]+)-[0-9]+\.360\.net$|} in
  Alcotest.(check (option string)) "no match" None
    (exec_str re "ae0.380.xiamen-5.360.net")

let test_compile_string_error () =
  match Engine.compile_string "a{" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_source_roundtrip () =
  let t = Engine.compile_exn {|^([a-z]{3})\d+$|} in
  let t2 = Engine.compile_exn (Engine.source t) in
  Alcotest.(check bool) "same behavior" true
    (Engine.exec t "abc12" = Engine.exec t2 "abc12")

(* --- prefilter --- *)

module Prefilter = Hoiho_rx.Prefilter

let pf re = Engine.prefilter (Engine.compile_exn re)

let test_prefilter_analysis () =
  let check name re (anchored, required, offset) =
    let p = pf re in
    Alcotest.(check (triple bool string (option int)))
      name (anchored, required, offset)
      (p.Prefilter.anchored, p.Prefilter.required, p.Prefilter.offset)
  in
  check "anchored literal" {|^abc$|} (true, "abc", Some 0);
  check "unanchored literal" {|abc|} (false, "abc", Some 0);
  check "longest run wins"
    {|^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$|}
    (true, ".zayo.com", None);
  check "fixed rep unrolled" {|^a{3}b$|} (true, "aaab", Some 0);
  check "offset after fixed-width atoms" {|^[a-z]{2}-ix$|} (true, "-ix", Some 2);
  check "length tie prefers leftmost" {|^ab(c|d)ef$|} (true, "ab", Some 0);
  check "no required literal" {|^([a-z]{3})\d+$|} (true, "", None)

let test_prefilter_shapes () =
  (* alternation: "core" is common to both branches and must survive as
     a scannable literal (required or extra) *)
  let p = pf {|^ae\d\.(core1|core2)\.example\.com$|} in
  let lits = p.Prefilter.required :: p.Prefilter.extras in
  Alcotest.(check bool) "alt common literal extracted" true
    (List.exists (fun l -> Prefilter.contains ~needle:"core" l) lits);
  (* needs_digit: set by a mandatory digit-only atom, not an optional one *)
  Alcotest.(check bool) "mandatory digit flagged" true
    (pf {|^[a-z]+\d{2}\.example$|}).Prefilter.needs_digit;
  Alcotest.(check bool) "optional digit not flagged" false
    (pf {|^[a-z]+\d*$|}).Prefilter.needs_digit;
  Alcotest.(check bool) "digit in every alt branch flagged" true
    (pf {|^(xe\d|ge\d\d)\.example$|}).Prefilter.needs_digit;
  (* tail: a $-terminated pattern pins its last literal at a fixed
     distance from the subject end *)
  Alcotest.(check (option (pair string int)))
    "tail at end"
    (Some (".zayo.com", 0))
    (pf {|^.+\.zayo\.com$|}).Prefilter.tail;
  Alcotest.(check (option (pair string int)))
    "tail before fixed-width atoms"
    (Some ("-ge", 2))
    (pf {|^.+-ge[a-z]{2}$|}).Prefilter.tail;
  (* no $ means no tail pin *)
  Alcotest.(check (option (pair string int)))
    "unanchored end has no tail" None
    (pf {|^.+\.zayo\.com|}).Prefilter.tail

let test_prefilter_find () =
  Alcotest.(check int) "found" 2 (Prefilter.find ~needle:"cd" "abcdcd" 0);
  Alcotest.(check int) "from start offset" 4 (Prefilter.find ~needle:"cd" "abcdcd" 3);
  Alcotest.(check int) "missing" (-1) (Prefilter.find ~needle:"xy" "abcd" 0);
  Alcotest.(check int) "at end" 2 (Prefilter.find ~needle:"cd" "abcd" 0);
  Alcotest.(check bool) "contains" true
    (Prefilter.contains ~needle:"zayo" "a.zayo.com");
  Alcotest.(check bool) "matches_at hit" true
    (Prefilter.matches_at ~needle:"zayo" "a.zayo.com" 2);
  Alcotest.(check bool) "matches_at miss" false
    (Prefilter.matches_at ~needle:"zayo" "a.zayo.com" 3);
  Alcotest.(check bool) "matches_at overrun" false
    (Prefilter.matches_at ~needle:"zayo" "a.zay" 2)

(* the prefiltered search must be indistinguishable from the exhaustive
   one: same match decision, same match position, same captures *)
let prop_prefilter_equiv (ast, input) =
  let t = Engine.compile ast in
  let a = Engine.exec t input in
  let b = Engine.exec_unfiltered t input in
  if a = b then true
  else
    QCheck.Test.fail_reportf "prefiltered and unfiltered disagree: %s on %S"
      (Ast.to_string ast) input

let arb_pf =
  QCheck.make
    ~print:(fun (ast, s) -> Printf.sprintf "%s on %S" (Ast.to_string ast) s)
    QCheck.Gen.(pair Test_props.gen_ast Test_props.gen_input)

(* embed each pattern's own required literal in the input so the
   occurrence-seeded scan path is exercised, not just the early bail *)
let arb_pf_seeded =
  QCheck.make
    ~print:(fun (ast, (s1, s2)) ->
      Printf.sprintf "%s on %S ^ required ^ %S" (Ast.to_string ast) s1 s2)
    QCheck.Gen.(pair Test_props.gen_ast (pair Test_props.gen_input Test_props.gen_input))

let prop_prefilter_equiv_seeded (ast, (s1, s2)) =
  let t = Engine.compile ast in
  let input = s1 ^ (Engine.prefilter t).Prefilter.required ^ s2 in
  prop_prefilter_equiv (ast, input)

(* capture agreement, group by group — not just the match decision —
   over patterns heavy in possessive repetitions and nested groups (the
   match/no-match equivalence alone would not notice a capture silently
   dropped to None on one path) *)
let show_caps = function
  | None -> "<no match>"
  | Some arr ->
      String.concat ","
        (Array.to_list arr |> List.map (function None -> "_" | Some x -> x))

let prop_capture_equiv (ast, (s1, s2)) =
  let t = Engine.compile ast in
  let input = s1 ^ (Engine.prefilter t).Prefilter.required ^ s2 in
  let a = Engine.exec t input in
  let b = Engine.exec_unfiltered t input in
  if a = b then true
  else
    QCheck.Test.fail_reportf
      "captures disagree: %s on %S\n  prefiltered: %s\n  unfiltered:  %s"
      (Ast.to_string ast) input (show_caps a) (show_caps b)

let arb_caps =
  QCheck.make
    ~print:(fun (ast, (s1, s2)) ->
      Printf.sprintf "%s on %S ^ required ^ %S" (Ast.to_string ast) s1 s2)
    QCheck.Gen.(
      pair Test_props.gen_ast_caps (pair Test_props.gen_input Test_props.gen_input))

(* --- Nfavm --- *)

module Nfavm = Hoiho_rx.Nfavm

let nfa_matches re s =
  Nfavm.matches (Nfavm.compile (Parse.parse_exn re)) s

let test_nfa_basics () =
  Alcotest.(check bool) "literal" true (nfa_matches "abc" "xabcy");
  Alcotest.(check bool) "literal fail" false (nfa_matches "abc" "abx");
  Alcotest.(check bool) "anchored" true (nfa_matches "^ab$" "ab");
  Alcotest.(check bool) "anchored fail" false (nfa_matches "^ab$" "xab");
  Alcotest.(check bool) "class rep" true (nfa_matches {|^[a-z]{3}\d+$|} "lhr15");
  Alcotest.(check bool) "alternation" true (nfa_matches "^(cat|dog)$" "dog");
  Alcotest.(check bool) "star empty" true (nfa_matches "^a*$" "");
  Alcotest.(check bool) "bounded" false (nfa_matches "^a{2,3}$" "aaaa")

let test_nfa_paper_regex () =
  Alcotest.(check bool) "zayo regex" true
    (nfa_matches {|^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$|}
       "zayo-ntt.mpr1.lhr15.uk.zip.zayo.com")

let test_nfa_rejects_possessive () =
  Alcotest.(check bool) "unsupported" false
    (Nfavm.supported (Parse.parse_exn {|^[a-z]++$|}));
  Alcotest.check_raises "compile raises"
    (Invalid_argument "Nfavm.compile: possessive quantifiers are unsupported")
    (fun () -> ignore (Nfavm.compile (Parse.parse_exn {|^[a-z]++$|})))

let test_nfa_no_blowup () =
  (* the classic backtracking bomb runs in linear time on the NFA *)
  let re = Parse.parse_exn "^(a|a)(a|a)(a|a)(a|a)(a|a)(a|a)(a|a)(a|a)(a|a)(a|a)b$" in
  let t = Nfavm.compile re in
  Alcotest.(check bool) "mismatch detected quickly" false
    (Nfavm.matches t "aaaaaaaaaac");
  Alcotest.(check bool) "program compiled" true (Nfavm.program_size t > 10)

let suites =
  [
    ( "rx.nfavm",
      [
        tc "basics" test_nfa_basics;
        tc "paper regex" test_nfa_paper_regex;
        tc "rejects possessive" test_nfa_rejects_possessive;
        tc "no blowup" test_nfa_no_blowup;
      ] );
    ( "rx.parse",
      [
        tc "errors" test_parse_errors;
        tc "roundtrip" test_parse_roundtrip;
        tc "group count" test_group_count;
        tc "compile_string error" test_compile_string_error;
        tc "source roundtrip" test_source_roundtrip;
      ] );
    ( "rx.match",
      [
        tc "literal" test_literal;
        tc "literal fail" test_literal_fail;
        tc "anchors pin" test_anchors_pin;
        tc "anchor start fail" test_anchor_start_fail;
        tc "anchor end fail" test_anchor_end_fail;
        tc "dot" test_dot;
        tc "dot needs char" test_dot_no_empty;
        tc "class" test_class;
        tc "class fail" test_class_fail;
        tc "negated class" test_neg_class;
        tc "negated class fail" test_neg_class_fail;
        tc "digit escape" test_digit_escape;
        tc "digit escape fail" test_digit_escape_fail;
        tc "optional absent" test_question;
        tc "optional present" test_question2;
        tc "star matches empty" test_star_empty;
        tc "plus needs one" test_plus_needs_one;
        tc "bounded rep min" test_bounded_rep;
        tc "bounded rep max" test_bounded_rep2;
        tc "open rep" test_open_rep;
        tc "exact rep fail" test_exact_rep_fail;
        tc "alternation" test_alternation;
        tc "alternation order" test_alternation_order;
        tc "nested groups" test_nested_groups;
        tc "unused branch group" test_unused_branch_group;
        tc "backtracking" test_backtracking;
        tc "greedy" test_greedy;
        tc "possessive blocks backtrack" test_possessive_blocks_backtrack;
        tc "possessive ok" test_possessive_ok;
        tc "possessive star" test_possessive_star;
        tc "possessive group captures" test_possessive_group_captures;
        tc "possessive group captures before tail" test_possessive_group_captures2;
        tc "possessive nested group captures" test_possessive_nested_group_captures;
        tc "iterations that match nothing" test_empty_iterations;
        tc "unanchored search" test_unanchored_search;
        tc "empty pattern" test_empty_pattern;
      ] );
    ( "rx.paper",
      [ tc "figure 7 regexes" test_paper_regexes; tc "figure 2 negative" test_paper_negative ] );
    ( "rx.prefilter",
      [
        tc "literal analysis" test_prefilter_analysis;
        tc "plan shapes" test_prefilter_shapes;
        tc "substring scan" test_prefilter_find;
        Test_props.q ~count:1200 "prefiltered exec = unfiltered exec" arb_pf
          prop_prefilter_equiv;
        Test_props.q ~count:600 "equivalence with embedded literal" arb_pf_seeded
          prop_prefilter_equiv_seeded;
        Test_props.q ~count:1000 "captures agree (possessive + nested groups)"
          arb_caps prop_capture_equiv;
      ] );
  ]
