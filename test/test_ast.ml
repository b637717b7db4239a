module Ast = Hoiho_rx.Ast
module Parse = Hoiho_rx.Parse

let tc = Helpers.tc

(* the class a bracket body parses to *)
let cls_of_string body =
  match Parse.parse_exn ("[" ^ body ^ "]") with
  | [ Ast.Cls c ] -> c
  | _ -> Alcotest.failf "[%s] is not one class" body

let test_cls_of_string () =
  let c = cls_of_string "a-z" in
  Alcotest.(check bool) "m in a-z" true (Ast.cls_mem c 'm');
  Alcotest.(check bool) "5 not in a-z" false (Ast.cls_mem c '5');
  let neg = cls_of_string "^." in
  Alcotest.(check bool) "negated dot excludes dot" false (Ast.cls_mem neg '.');
  Alcotest.(check bool) "negated dot includes a" true (Ast.cls_mem neg 'a');
  let multi = cls_of_string "a-z\\d" in
  Alcotest.(check bool) "letters" true (Ast.cls_mem multi 'q');
  Alcotest.(check bool) "digits" true (Ast.cls_mem multi '7');
  Alcotest.(check bool) "dash excluded" false (Ast.cls_mem multi '-')

let test_cls_literal_dash () =
  (* a dash before the closing bracket is a literal *)
  let c = cls_of_string "a-" in
  Alcotest.(check bool) "a member" true (Ast.cls_mem c 'a');
  Alcotest.(check bool) "dash member" true (Ast.cls_mem c '-');
  Alcotest.(check bool) "b not member" false (Ast.cls_mem c 'b')

let test_helpers () =
  Alcotest.(check bool) "digit class" true (Ast.cls_mem Ast.digit '0');
  Alcotest.(check bool) "lower class" true (Ast.cls_mem Ast.lower 'z');
  Alcotest.(check bool) "not_char" false (Ast.cls_mem (Ast.not_char '.') '.');
  Alcotest.(check bool) "not_char other" true (Ast.cls_mem (Ast.not_char '.') 'x')

let test_count_groups () =
  Alcotest.(check int) "flat" 2
    (Ast.count_groups (Parse.parse_exn {|(a)(b)c|}));
  Alcotest.(check int) "nested" 3
    (Ast.count_groups (Parse.parse_exn {|((a)x(b))|}));
  Alcotest.(check int) "beside a repetition" 1
    (Ast.count_groups (Parse.parse_exn {|(ab)c+|}))

let test_escaping_roundtrip () =
  (* every special character must survive print -> parse -> print *)
  List.iter
    (fun c ->
      let ast = [ Ast.Lit c ] in
      let printed = Ast.to_string ast in
      let back = Parse.parse_exn printed in
      Alcotest.(check bool)
        (Printf.sprintf "literal %C roundtrips" c)
        true
        (Ast.equal ast back))
    [ '.'; '\\'; '('; ')'; '['; ']'; '{'; '}'; '*'; '+'; '?'; '^'; '$'; '|'; 'a'; '-' ]

let test_quantifier_printing () =
  let p s = Ast.to_string (Parse.parse_exn s) in
  Alcotest.(check string) "exact" "a{3}" (p "a{3}");
  Alcotest.(check string) "range" "a{2,5}" (p "a{2,5}");
  Alcotest.(check string) "open" "a{2,}" (p "a{2,}");
  Alcotest.(check string) "question from range" "a?" (p "a{0,1}");
  Alcotest.(check string) "digit shorthand" {|\d+|} (p {|\d+|});
  Alcotest.(check string) "possessive survives" "a++" (p "a++")

let suites =
  [
    ( "rx.ast",
      [
        tc "cls_of_string" test_cls_of_string;
        tc "literal dash" test_cls_literal_dash;
        tc "helper classes" test_helpers;
        tc "count groups" test_count_groups;
        tc "escaping roundtrip" test_escaping_roundtrip;
        tc "quantifier printing" test_quantifier_printing;
      ] );
  ]
