type greed = Greedy | Possessive

type cls = { neg : bool; ranges : (char * char) list }

type atom = Lit of char | Cls of cls | Any

type node =
  | Lit of char
  | Cls of cls
  | Any
  | Bol
  | Eol
  | Rep of atom * int * int option * greed
  | Grp of t

and t = node list

let node_of_atom : atom -> node = function Lit c -> Lit c | Cls c -> Cls c | Any -> Any

let cls_mem { neg; ranges } c =
  let inside = List.exists (fun (a, b) -> c >= a && c <= b) ranges in
  if neg then not inside else inside

let cls_bitmap cls =
  let b = Bytes.make 256 '\000' in
  for i = 0 to 255 do
    if cls_mem cls (Char.chr i) then Bytes.unsafe_set b i '\001'
  done;
  b

let digit = { neg = false; ranges = [ ('0', '9') ] }
let lower = { neg = false; ranges = [ ('a', 'z') ] }
let not_char c = { neg = true; ranges = [ (c, c) ] }

let rec count_groups t =
  List.fold_left
    (fun acc n -> match n with Grp inner -> acc + 1 + count_groups inner | _ -> acc)
    0 t

let escape_lit c =
  match c with
  | '.' | '\\' | '(' | ')' | '[' | ']' | '{' | '}' | '*' | '+' | '?' | '^'
  | '$' | '|' ->
      Printf.sprintf "\\%c" c
  | c -> String.make 1 c

let escape_in_class c =
  match c with
  | '\\' | ']' | '^' | '-' -> Printf.sprintf "\\%c" c
  | c -> String.make 1 c

let cls_to_string { neg; ranges } =
  if (not neg) && ranges = [ ('0', '9') ] then "\\d"
  else begin
    let buf = Buffer.create 8 in
    Buffer.add_char buf '[';
    if neg then Buffer.add_char buf '^';
    List.iter
      (fun (a, b) ->
        if a = b then Buffer.add_string buf (escape_in_class a)
        else if a = '0' && b = '9' then Buffer.add_string buf "\\d"
        else begin
          Buffer.add_string buf (escape_in_class a);
          Buffer.add_char buf '-';
          Buffer.add_string buf (escape_in_class b)
        end)
      ranges;
    Buffer.add_char buf ']';
    Buffer.contents buf
  end

let atom_to_string : atom -> string = function
  | Lit c -> escape_lit c
  | Cls c -> cls_to_string c
  | Any -> "."

let rec to_string t = String.concat "" (List.map node_to_string t)

and node_to_string = function
  | Lit c -> escape_lit c
  | Cls c -> cls_to_string c
  | Any -> "."
  | Bol -> "^"
  | Eol -> "$"
  | Rep (a, min, max, greed) ->
      let quant =
        match (min, max) with
        | 0, Some 1 -> "?"
        | 0, None -> "*"
        | 1, None -> "+"
        | n, Some m when n = m -> Printf.sprintf "{%d}" n
        | n, None -> Printf.sprintf "{%d,}" n
        | n, Some m -> Printf.sprintf "{%d,%d}" n m
      in
      let suffix = match greed with Greedy -> "" | Possessive -> "+" in
      atom_to_string a ^ quant ^ suffix
  | Grp inner -> "(" ^ to_string inner ^ ")"

let equal (a : t) (b : t) = a = b
