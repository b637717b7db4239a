exception Err of string

type state = { src : string; mutable pos : int; mutable reps : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let errf fmt = Printf.ksprintf (fun msg -> raise (Err msg)) fmt

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> errf "expected '%c' at position %d" c st.pos

(* the character after a backslash at [st.pos - 1]: [\d] is the digit
   class, [\n] and [\t] the control characters, escaped punctuation
   the character itself; any other escaped letter or digit ([\w],
   [\b], [\1], ...) means something else in other dialects, so it is
   refused rather than read as itself *)
let escape st =
  match peek st with
  | None -> errf "dangling backslash at position %d" (st.pos - 1)
  | Some c -> (
      advance st;
      match c with
      | 'd' -> `Digit
      | 'n' -> `Char '\n'
      | 't' -> `Char '\t'
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9') as c ->
          errf "unsupported escape '\\%c' at position %d" c (st.pos - 2)
      | c -> `Char c)

(* positioned just after '['; consumes through ']' *)
let parse_class st =
  let member () =
    match peek st with
    | None -> errf "unterminated character class"
    | Some '\\' ->
        advance st;
        escape st
    | Some c ->
        advance st;
        `Char c
  in
  let neg = peek st = Some '^' in
  if neg then advance st;
  let rec go acc =
    if peek st = Some ']' then begin
      advance st;
      List.rev acc
    end
    else
      match member () with
      | `Digit -> go (('0', '9') :: acc)
      | `Char a ->
          (* a '-' right before the closing ']' is a literal dash *)
          let next_is_close =
            st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = ']'
          in
          if peek st = Some '-' && not next_is_close then begin
            let at = st.pos in
            advance st;
            match member () with
            | `Digit -> errf "range to a class at position %d" at
            | `Char b when b < a -> errf "reversed range %c-%c at position %d" a b at
            | `Char b -> go ((a, b) :: acc)
          end
          else go ((a, a) :: acc)
  in
  { Ast.neg; ranges = go [] }

let max_count = 1024
let max_reps = 256

(* a count past [max_count] (or past [max_int]) is an error, never a
   [Failure] from [int_of_string] *)
let parse_int st =
  let start = st.pos in
  while match peek st with Some '0' .. '9' -> true | _ -> false do
    advance st
  done;
  if st.pos = start then errf "expected integer in quantifier at position %d" start;
  match int_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some n when n <= max_count -> n
  | _ -> errf "quantifier count at position %d exceeds the limit of %d" start max_count

(* positioned just after '{' *)
let parse_brace_quant st =
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
          if max < min then errf "quantifier max below min";
          (min, Some max))
  | _ -> errf "malformed {n,m} quantifier"

(* the quantifier at the cursor, if any; a trailing '+' makes it
   possessive *)
let quantifier st =
  let bounds =
    match peek st with
    | Some '?' ->
        advance st;
        Some (0, Some 1)
    | Some '*' ->
        advance st;
        Some (0, None)
    | Some '+' ->
        advance st;
        Some (1, None)
    | Some '{' ->
        advance st;
        Some (parse_brace_quant st)
    | _ -> None
  in
  Option.map
    (fun (min, max) ->
      if peek st = Some '+' then begin
        advance st;
        (min, max, Ast.Possessive)
      end
      else (min, max, Ast.Greedy))
    bounds

(* an anchor or a group: the dialect repeats single characters only *)
let unquantified st node =
  match peek st with
  | Some (('?' | '*' | '+' | '{') as c) ->
      errf "quantifier '%c' at position %d repeats %s; only one character may repeat" c
        st.pos
        (match node with Ast.Grp _ -> "a group" | _ -> "an anchor")
  | _ -> node

let rec parse_seq st =
  let rec go acc =
    match peek st with
    | None | Some ')' -> List.rev acc
    | Some _ -> go (parse_item st :: acc)
  in
  go []

and parse_item st =
  match peek st with
  | Some '^' ->
      advance st;
      unquantified st Ast.Bol
  | Some '$' ->
      advance st;
      unquantified st Ast.Eol
  | Some '(' ->
      advance st;
      if peek st = Some '?' then errf "'(?' at position %d: only capture groups" (st.pos - 1);
      let inner = parse_seq st in
      expect st ')';
      unquantified st (Ast.Grp inner)
  | _ -> (
      let atom = parse_char st in
      let at = st.pos in
      match quantifier st with
      | Some (min, max, greed) ->
          st.reps <- st.reps + 1;
          if st.reps > max_reps then
            errf "quantifier at position %d exceeds the limit of %d per pattern" at
              max_reps;
          Ast.Rep (atom, min, max, greed)
      | None -> Ast.node_of_atom atom)

(* one character: a literal, an escape, a class or '.' *)
and parse_char st : Ast.atom =
  match peek st with
  | None -> errf "unexpected end of pattern"
  | Some '.' ->
      advance st;
      Ast.Any
  | Some '[' ->
      advance st;
      Ast.Cls (parse_class st)
  | Some '\\' -> (
      advance st;
      match escape st with `Digit -> Ast.Cls Ast.digit | `Char c -> Ast.Lit c)
  | Some '|' -> errf "alternation '|' at position %d is not in the dialect" st.pos
  | Some (('*' | '+' | '?' | '{' | ')') as c) -> errf "unexpected '%c' at position %d" c st.pos
  | Some c ->
      advance st;
      Ast.Lit c

let parse s =
  let st = { src = s; pos = 0; reps = 0 } in
  try
    let ast = parse_seq st in
    if st.pos < String.length s then
      Error (Printf.sprintf "trailing input at position %d" st.pos)
    else Ok ast
  with Err msg -> Error msg

let parse_exn s =
  match parse s with
  | Ok ast -> ast
  | Error msg -> invalid_arg (Printf.sprintf "Rx.Parse.parse_exn: %s in %S" msg s)
