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

(* [re] is an [Error] from the parser, and so from [compile_string],
   never an exception *)
let check_refused re =
  match Parse.parse re with
  | Ok ast -> Alcotest.failf "expected parse error for %S, got %s" re (Ast.to_string ast)
  | exception e -> Alcotest.failf "%S raised %s" re (Printexc.to_string e)
  | Error _ -> (
      match Engine.compile_string re with
      | Ok _ -> Alcotest.failf "%S compiled" re
      | Error _ -> ())

let refused res () = List.iter check_refused res

let test_parse_errors () =
  List.iter check_refused
    [
      "a{2,1}"; "("; ")"; "[abc"; "*a"; "a{"; "\\"; "a|*";
      (* counts past max_int, and past the longest subject *)
      "a{99999999999999999999}";
      "a{1,99999999999999999999}";
      Printf.sprintf "^a{%d}b$" (Parse.max_count + 1);
      (* a range must run between two characters, upwards *)
      {|[a-\d]|}; "[z-a]";
      (* escaped letters mean something else in other dialects *)
      {|^\w+\.example\.net$|}; {|\s|}; {|\b|}; {|[\w]|}; {|\1|};
      (* only characters repeat *)
      "^*"; "$+"; "()?";
      (* alternation is not in the dialect *)
      {|^ae\d\.(core1|core2)\.example\.com$|}; {|^(xe\d|ge\d\d)\.example$|};
      (* one quantifier past the per-pattern limit *)
      "^" ^ String.concat "" (List.init (Parse.max_reps + 1) (fun _ -> "a*")) ^ "$";
    ];
  Alcotest.(check bool) "the count bound is within the subject bound" true
    (Parse.max_count <= Engine.max_subject_len);
  check_match (Printf.sprintf "^a{0,%d}b$" Parse.max_count) "aab" (Some "") ();
  check_match
    ("^" ^ String.concat "" (List.init Parse.max_reps (fun _ -> "a?")) ^ "b$")
    "aab" (Some "") ();
  (* escaped punctuation is the character itself *)
  check_match {|^\-\(\\$|} {|-(\|} (Some "") ()

let test_parse_roundtrip () =
  let res =
    [
      {|^.+\.([a-z]{3})\d+\.([a-z]{2})\.[a-z]{3}\.zayo\.com$|};
      {|^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$|};
      {|^\d+\.[a-z]+\d+\.([a-z]{6})[a-z\d]++\.alter\.net$|};
      {|^((a)bb(c))x?$|};
      {|[a-z]{2,4}|};
    ]
  in
  List.iter
    (fun re ->
      let ast = Parse.parse_exn re in
      let printed = Ast.to_string ast in
      let ast2 = Parse.parse_exn printed in
      Alcotest.(check bool) (re ^ " roundtrip") true (Ast.equal ast ast2))
    res;
  (* alternation and non-capturing groups are not in the dialect *)
  refused [ {|^(a|bb|ccc)x?$|}; {|(?:ab|cd)+|} ] ()

let test_group_count () =
  let count re = Engine.group_count (Engine.compile_exn re) in
  Alcotest.(check int) "none" 0 (count "abc");
  Alcotest.(check int) "two" 2 (count {|(a)(b)|});
  Alcotest.(check int) "nested" 2 (count {|((a)b)|});
  refused [ {|(a)|(b)|} ] ()

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

(* the dialect has no alternation: these are refused at parse *)
let test_alternation = refused [ {|^(cat|dog)$|} ]
let test_alternation_order = refused [ {|^(a|ab)c$|} ]
let test_nested_groups = check_match {|^((a+)(b+))$|} "aabb" (Some "aabb,aa,bb")
let test_unused_branch_group = refused [ {|^(a)|(b)$|} ]

let test_backtracking = check_match {|^(.+)\.([a-z]+)$|} "a.b.c" (Some "a.b,c")
let test_greedy = check_match {|^([a-z]+)([a-z])$|} "abcd" (Some "abc,d")

let test_possessive_blocks_backtrack = check_match {|^[a-z]++z$|} "abcz" None
let test_possessive_ok = check_match {|^[a-z]++\d$|} "abc1" (Some "")
let test_possessive_star = check_match {|^a*+b$|} "aaab" (Some "")

(* a quantifier repeats one character, never a group: these are
   refused at parse *)
let test_possessive_group_captures = refused [ {|^([a-z])++$|} ]
let test_possessive_group_captures2 = refused [ {|^([a-z])++\d$|} ]
let test_possessive_nested_group_captures = refused [ {|^(([a-z])([a-z]))++$|} ]

(* a repetition of a one-character atom cannot match nothing per
   iteration, so the empty-iteration rules have nothing to decide:
   every such pattern repeats a group or alternates *)
let test_empty_iterations =
  refused
    [
      {|^(a*)+b$|}; {|^(a?){2}b$|}; {|^(?:a|)+b$|}; {|^((a)|)+b$|}; {|^(?:(a)|b?)+c$|};
    ]

(* the failure memo bounds every search: shapes that backtrack
   polynomially without it, on subjects that almost match. The
   exponential shapes repeat a group or alternate, and are refused. *)
let time_bound_cases =
  [
    ({|^.*.*.*.*[xy]$|}, 256);
    ({|^[a-z]+[a-z]+[a-z]+[a-z]+[a-z]+[xy]$|}, 128);
    ("^" ^ String.concat "" (List.init 16 (fun _ -> ".*")) ^ "[xy]$", Engine.max_subject_len);
  ]

let test_time_bound () =
  refused [ {|^(a+)+[bc]$|}; {|^(a|a)+[bc]$|} ] ();
  List.iter
    (fun (re, n) ->
      let t = Engine.compile_exn re in
      let subject = String.make n 'a' in
      let t0 = Unix.gettimeofday () in
      let r = Engine.exec t subject in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) (Printf.sprintf "%s on %d a's: no match" re n) true (r = None);
      if dt > 0.2 then Alcotest.failf "%s on %d a's took %.3f s (bound 0.2 s)" re n dt;
      (* and one character more makes it match *)
      Alcotest.(check bool) (re ^ " matches with the last byte") true
        (Engine.matches t (String.make (n - 1) 'a' ^ "x")))
    time_bound_cases

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

(* --- the failure memo --- *)

(* the memoized search must be indistinguishable from the memo-free
   one: same match decision, same match position, same captures *)
let prop_memo_equiv (ast, input) =
  let t = Engine.compile ast in
  let a = Engine.exec t input in
  let b = Engine.exec_memo_free t input in
  if a = b then true
  else
    QCheck.Test.fail_reportf "memoized and memo-free disagree: %s on %S"
      (Ast.to_string ast) input

let arb_equiv =
  QCheck.make
    ~print:(fun (ast, s) -> Printf.sprintf "%s on %S" (Ast.to_string ast) s)
    QCheck.Gen.(pair Test_props.gen_ast Test_props.gen_input)

(* the pattern's longest run of literal characters, which every match
   contains; groups are transparent, since none repeats or alternates *)
let longest_literal ast =
  let rec flat nodes = List.concat_map (function Ast.Grp g -> flat g | n -> [ n ]) nodes in
  let longer a b = if String.length b > String.length a then b else a in
  let best, run =
    List.fold_left
      (fun (best, run) -> function
        | Ast.Lit c -> (best, run ^ String.make 1 c)
        | _ -> (longer best run, ""))
      ("", "") (flat ast)
  in
  longer best run

(* embed each pattern's longest literal in the input, so that matching
   inputs are common, not just early failures *)
let arb_seeded =
  QCheck.make
    ~print:(fun (ast, (s1, s2)) ->
      Printf.sprintf "%s on %S ^ literal ^ %S" (Ast.to_string ast) s1 s2)
    QCheck.Gen.(pair Test_props.gen_ast (pair Test_props.gen_input Test_props.gen_input))

let prop_memo_equiv_seeded (ast, (s1, s2)) =
  prop_memo_equiv (ast, s1 ^ longest_literal ast ^ s2)

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
  let input = s1 ^ longest_literal ast ^ s2 in
  let a = Engine.exec t input in
  let b = Engine.exec_memo_free t input in
  if a = b then true
  else
    QCheck.Test.fail_reportf
      "captures disagree: %s on %S\n  memoized:  %s\n  memo-free: %s"
      (Ast.to_string ast) input (show_caps a) (show_caps b)

let arb_caps =
  QCheck.make
    ~print:(fun (ast, (s1, s2)) ->
      Printf.sprintf "%s on %S ^ literal ^ %S" (Ast.to_string ast) s1 s2)
    QCheck.Gen.(
      pair Test_props.gen_ast_caps (pair Test_props.gen_input Test_props.gen_input))

(* --- Nfavm --- *)

let nfa_matches re s =
  Nfavm.matches (Nfavm.compile (Parse.parse_exn re)) s

let test_nfa_basics () =
  Alcotest.(check bool) "literal" true (nfa_matches "abc" "xabcy");
  Alcotest.(check bool) "literal fail" false (nfa_matches "abc" "abx");
  Alcotest.(check bool) "anchored" true (nfa_matches "^ab$" "ab");
  Alcotest.(check bool) "anchored fail" false (nfa_matches "^ab$" "xab");
  Alcotest.(check bool) "class rep" true (nfa_matches {|^[a-z]{3}\d+$|} "lhr15");
  Alcotest.(check bool) "group" true (nfa_matches "^([cd]o[gt])s?$" "dogs");
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
  (* a backtracking bomb of the dialect runs in linear time on the NFA *)
  let re = Parse.parse_exn "^[a-z]+[a-z]+[a-z]+[a-z]+[a-z]+[a-z]+[a-z]+[a-z]+b$" in
  let t = Nfavm.compile re in
  Alcotest.(check bool) "mismatch detected quickly" false
    (Nfavm.matches t (String.make 200 'a' ^ "c"));
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
        tc "time bound on backtracking shapes" test_time_bound;
        tc "unanchored search" test_unanchored_search;
        tc "empty pattern" test_empty_pattern;
      ] );
    ( "rx.paper",
      [ tc "figure 7 regexes" test_paper_regexes; tc "figure 2 negative" test_paper_negative ] );
    ( "rx.memo",
      [
        Test_props.q ~count:1200 "memoized exec = memo-free exec" arb_equiv
          prop_memo_equiv;
        Test_props.q ~count:600 "equivalence with embedded literal" arb_seeded
          prop_memo_equiv_seeded;
        Test_props.q ~count:1000 "captures agree (possessive + nested groups)"
          arb_caps prop_capture_equiv;
      ] );
  ]
