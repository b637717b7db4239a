type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else begin
    let s = Printf.sprintf "%.17g" f in
    (* keep the float-ness visible so it reparses as Float, not Int *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            go v)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- parsing --- *)

exception Fail of string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          true
      | _ -> false
    do
      ()
    done
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_add buf cp =
    (* encode a Unicode code point as UTF-8 bytes *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let s = String.sub input !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad \\u escape %S" s)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          Buffer.contents buf
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  let cp = hex4 () in
                  (* combine a surrogate pair when one follows *)
                  if cp >= 0xd800 && cp <= 0xdbff && !pos + 6 <= n
                     && input.[!pos] = '\\'
                     && input.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo >= 0xdc00 && lo <= 0xdfff then
                      utf8_add buf
                        (0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00))
                    else begin
                      utf8_add buf cp;
                      utf8_add buf lo
                    end
                  end
                  else utf8_add buf cp
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              loop ())
      | Some c when Char.code c < 0x20 -> fail "raw control byte in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let consume p =
      while (match peek () with Some c -> p c | None -> false) do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    consume (fun c -> c >= '0' && c <= '9');
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      consume (fun c -> c >= '0' && c <= '9')
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        consume (fun c -> c >= '0' && c <= '9')
    | _ -> ());
    let s = String.sub input start (!pos - start) in
    if !is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          (* an integer too wide for 63 bits still parses as a float *)
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* --- accessors --- *)

let kind = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> Float.equal a b
  | String a, String b -> String.equal a b
  | List a, List b -> List.equal equal a b
  | Obj a, Obj b ->
      let keys fields = List.sort_uniq compare (List.map fst fields) in
      let ka = keys a and kb = keys b in
      List.equal String.equal ka kb
      && List.for_all
           (fun k ->
             match (List.assoc_opt k a, List.assoc_opt k b) with
             | Some va, Some vb -> equal va vb
             | _ -> false)
           ka
  | _ -> false

(* --- decoding ---

   A path is built as a decoder descends and rendered only when an
   error names it, so a successful decode allocates one small node per
   field or item and formats nothing. *)

type path = Root | Key of path * string | Nth of path * int

let root = Root

let path_to_string p =
  let buf = Buffer.create 32 in
  let rec go = function
    | Root -> Buffer.add_char buf '$'
    | Key (p, k) ->
        go p;
        Buffer.add_char buf '.';
        Buffer.add_string buf k
    | Nth (p, i) ->
        go p;
        Printf.bprintf buf "[%d]" i
  in
  go p;
  Buffer.contents buf

type error = { path : string; expected : string; got : string }

let error_to_string e = Printf.sprintf "%s: expected %s, got %s" e.path e.expected e.got

type 'a decoder = path -> t -> ('a, error) result

let fail path ~expected ~got = Error { path = path_to_string path; expected; got }
let mismatch path expected j = fail path ~expected ~got:(kind j)

let int path = function Int i -> Ok i | j -> mismatch path "int" j

let number path = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | j -> mismatch path "number" j

let string path = function String s -> Ok s | j -> mismatch path "string" j
let bool path = function Bool b -> Ok b | j -> mismatch path "bool" j

(* one pass, one list: the first failing item stops the map *)
let list d path = function
  | List items -> (
      let exception Failed of error in
      match
        List.mapi
          (fun i item ->
            match d (Nth (path, i)) item with Ok v -> v | Error e -> raise_notrace (Failed e))
          items
      with
      | vs -> Ok vs
      | exception Failed e -> Error e)
  | j -> mismatch path "list" j

let pair da db path = function
  | List [ a; b ] -> (
      match da (Nth (path, 0)) a with
      | Error _ as e -> e
      | Ok va -> (
          match db (Nth (path, 1)) b with Ok vb -> Ok (va, vb) | Error _ as e -> e))
  | List l ->
      fail path ~expected:"2-element list"
        ~got:(Printf.sprintf "%d-element list" (List.length l))
  | j -> mismatch path "list" j

let field name d path = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> d (Key (path, name)) v
      | None -> fail (Key (path, name)) ~expected:"present field" ~got:"absent")
  | j -> mismatch path "object" j

let field_opt name d path = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Result.map Option.some (d (Key (path, name)) v)
      | None -> Ok None)
  | j -> mismatch path "object" j

let enum expected of_wire path = function
  | String s as j -> (
      match of_wire s with Some v -> Ok v | None -> fail path ~expected ~got:(to_string j))
  | j -> mismatch path "string" j

let check expected ok d path j =
  match d path j with
  | Ok v when not (ok v) -> fail path ~expected ~got:(to_string j)
  | r -> r

(* --- files --- *)

let read_file ~max_bytes ~what path =
  match
    In_channel.with_open_bin path (fun ic ->
        let n = in_channel_length ic in
        if n > max_bytes then
          Error
            (Printf.sprintf "%s: %d bytes exceeds the limit of %d for %s" path n
               max_bytes what)
        else Ok (really_input_string ic n))
  with
  | r -> r
  | exception (Sys_error msg) -> Error msg
  | exception End_of_file -> Error (path ^ ": file shrank while it was read")
