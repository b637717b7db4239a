type greed = Greedy | Possessive

type cls = { neg : bool; ranges : (char * char) list }

type node =
  | Lit of char
  | Cls of cls
  | Any
  | Bol
  | Eol
  | Rep of node * int * int option * greed
  | Grp of t
  | Alt of t list

and t = node list

let cls_of_string body =
  let n = String.length body in
  let neg = n > 0 && body.[0] = '^' in
  let start = if neg then 1 else 0 in
  let ranges = ref [] in
  let i = ref start in
  let read_char () =
    (* interpret one (possibly escaped) character at !i, advancing *)
    if body.[!i] = '\\' && !i + 1 < n then begin
      let c = body.[!i + 1] in
      i := !i + 2;
      match c with
      | 'd' -> `Class ('0', '9')
      | 'n' -> `Char '\n'
      | 't' -> `Char '\t'
      | c -> `Char c
    end
    else begin
      let c = body.[!i] in
      incr i;
      `Char c
    end
  in
  while !i < n do
    match read_char () with
    | `Class (a, b) -> ranges := (a, b) :: !ranges
    | `Char a ->
        if !i + 1 < n && body.[!i] = '-' && body.[!i + 1] <> ']' then begin
          incr i;
          match read_char () with
          | `Char b -> ranges := (a, b) :: !ranges
          | `Class _ -> invalid_arg "cls_of_string: range to a class"
        end
        else ranges := (a, a) :: !ranges
  done;
  { neg; ranges = List.rev !ranges }

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

let rec count_groups t = List.fold_left (fun acc n -> acc + groups_in n) 0 t

and groups_in = function
  | Lit _ | Cls _ | Any | Bol | Eol -> 0
  | Rep (n, _, _, _) -> groups_in n
  | Grp inner -> 1 + count_groups inner
  | Alt alts -> List.fold_left (fun acc a -> acc + count_groups a) 0 alts

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

let rec to_string t = String.concat "" (List.map node_to_string t)

and node_to_string = function
  | Lit c -> escape_lit c
  | Cls c -> cls_to_string c
  | Any -> "."
  | Bol -> "^"
  | Eol -> "$"
  | Rep (n, min, max, greed) ->
      let base = node_to_string n in
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
      base ^ quant ^ suffix
  | Grp inner -> "(" ^ to_string inner ^ ")"
  | Alt alts -> "(?:" ^ String.concat "|" (List.map to_string alts) ^ ")"

let equal (a : t) (b : t) = a = b
