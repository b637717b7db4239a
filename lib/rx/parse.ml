exception Err of string

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> raise (Err (Printf.sprintf "expected '%c' at position %d" c st.pos))

let parse_class_body st =
  (* positioned just after '['; consumes through ']' *)
  let buf = Buffer.create 8 in
  let rec go () =
    match peek st with
    | None -> raise (Err "unterminated character class")
    | Some ']' -> advance st
    | Some '\\' ->
        advance st;
        (match peek st with
        | None -> raise (Err "dangling backslash in class")
        | Some c ->
            advance st;
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
        go ()
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Ast.cls_of_string (Buffer.contents buf)

let max_count = 1024

(* a count past [max_count] (or past [max_int]) is an error, never a
   [Failure] from [int_of_string] *)
let parse_int st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when c >= '0' && c <= '9' ->
        advance st;
        go ()
    | _ -> ()
  in
  go ();
  if st.pos = start then raise (Err "expected integer in quantifier");
  match int_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some n when n <= max_count -> n
  | _ ->
      raise
        (Err
           (Printf.sprintf "quantifier count at position %d exceeds the limit of %d"
              start max_count))

let parse_brace_quant st =
  (* positioned just after '{' *)
  let min = parse_int st in
  match peek st with
  | Some '}' ->
      advance st;
      (min, Some min)
  | Some ',' -> (
      advance st;
      match peek st with
      | Some '}' ->
          advance st;
          (min, None)
      | _ ->
          let max = parse_int st in
          expect st '}';
          if max < min then raise (Err "quantifier max below min");
          (min, Some max))
  | _ -> raise (Err "malformed {n,m} quantifier")

let escaped_atom c =
  match c with
  | 'd' -> Ast.Cls Ast.digit
  | 'n' -> Ast.Lit '\n'
  | 't' -> Ast.Lit '\t'
  | c -> Ast.Lit c

let rec parse_alt st =
  let first = parse_seq st in
  let rec go acc =
    match peek st with
    | Some '|' ->
        advance st;
        go (parse_seq st :: acc)
    | _ -> List.rev acc
  in
  match go [ first ] with [ single ] -> single | many -> [ Ast.Alt many ]

and parse_seq st =
  let rec go acc =
    match peek st with
    | None | Some '|' | Some ')' -> List.rev acc
    | Some _ ->
        let item = parse_item st in
        go (item :: acc)
  in
  go []

and parse_item st =
  let atom = parse_atom st in
  match peek st with
  | Some '?' ->
      advance st;
      quantified st atom 0 (Some 1)
  | Some '*' ->
      advance st;
      quantified st atom 0 None
  | Some '+' ->
      advance st;
      quantified st atom 1 None
  | Some '{' ->
      advance st;
      let min, max = parse_brace_quant st in
      quantified st atom min max
  | _ -> atom

and quantified st atom min max =
  (* a trailing '+' makes the quantifier possessive *)
  let greed =
    match peek st with
    | Some '+' ->
        advance st;
        Ast.Possessive
    | _ -> Ast.Greedy
  in
  match atom with
  | Ast.Bol | Ast.Eol -> raise (Err "cannot quantify an anchor")
  | atom -> Ast.Rep (atom, min, max, greed)

and parse_atom st =
  match peek st with
  | None -> raise (Err "unexpected end of pattern")
  | Some '^' ->
      advance st;
      Ast.Bol
  | Some '$' ->
      advance st;
      Ast.Eol
  | Some '.' ->
      advance st;
      Ast.Any
  | Some '[' ->
      advance st;
      Ast.Cls (parse_class_body st)
  | Some '\\' -> (
      advance st;
      match peek st with
      | None -> raise (Err "dangling backslash")
      | Some c ->
          advance st;
          escaped_atom c)
  | Some '(' -> (
      advance st;
      let capturing =
        if peek st = Some '?' then begin
          advance st;
          expect st ':';
          false
        end
        else true
      in
      let inner = parse_alt st in
      expect st ')';
      if capturing then Ast.Grp inner
      else match inner with [ (Ast.Alt _ as a) ] -> a | seq -> Ast.Alt [ seq ])
  | Some (('*' | '+' | '?' | '{' | ')' | '|') as c) ->
      raise (Err (Printf.sprintf "unexpected '%c' at position %d" c st.pos))
  | Some c ->
      advance st;
      Ast.Lit c

let parse s =
  let st = { src = s; pos = 0 } in
  try
    let ast = parse_alt st in
    if st.pos < String.length s then
      Error (Printf.sprintf "trailing input at position %d" st.pos)
    else Ok ast
  with Err msg -> Error msg

let parse_exn s =
  match parse s with
  | Ok ast -> ast
  | Error msg -> invalid_arg (Printf.sprintf "Rx.Parse.parse_exn: %s in %S" msg s)
