(* Format (one record per line, fields separated by single spaces):
     itdk <label...>
     vp <id> <name> <lat> <lon> <city_key>
     link <id> <id>
     router <id>
     asn <asn>
     host <hostname>
     ping <vp_id> <rtt_ms>
     trace <vp_id> <rtt_ms>
     truth <lat> <lon> <stale:0|1> <city_key>
     hint <intended_hint>
     hosthint <hostname> <code|->
   A hostname never contains spaces; city keys contain '|' but no
   spaces; labels may contain spaces and run to end of line. *)

module Coord = Hoiho_geo.Coord

let emit put (ds : Dataset.t) =
  let pr fmt = Printf.ksprintf put fmt in
  pr "itdk %s\n" ds.Dataset.label;
  Array.iter
    (fun (vp : Vp.t) ->
      pr "vp %d %s %.6f %.6f %s\n" vp.Vp.id vp.Vp.name
        vp.Vp.coord.Coord.lat vp.Vp.coord.Coord.lon vp.Vp.city_key)
    ds.Dataset.vps;
  Array.iter (fun (a, b) -> pr "link %d %d\n" a b) ds.Dataset.links;
  Array.iter
    (fun (r : Router.t) ->
      pr "router %d\n" r.Router.id;
      (match r.Router.asn with
      | Some asn -> pr "asn %d\n" asn
      | None -> ());
      List.iter (fun h -> pr "host %s\n" h) r.Router.hostnames;
      Rtts.iter (fun vp rtt -> pr "ping %d %.4f\n" vp rtt) r.Router.ping_rtts;
      Rtts.iter (fun vp rtt -> pr "trace %d %.4f\n" vp rtt) r.Router.trace_rtts;
      match r.Router.truth with
      | None -> ()
      | Some t ->
          pr "truth %.6f %.6f %d %s\n" t.Router.coord.Coord.lat
            t.Router.coord.Coord.lon
            (if t.Router.stale then 1 else 0)
            t.Router.city_key;
          (match t.Router.intended_hint with
          | Some hint -> pr "hint %s\n" hint
          | None -> ());
          List.iter
            (fun (h, code) ->
              pr "hosthint %s %s\n" h (Option.value code ~default:"-"))
            t.Router.hostname_hints)
    ds.Dataset.routers

let write oc ds = emit (output_string oc) ds

let to_string ds =
  let buf = Buffer.create 65536 in
  emit (Buffer.add_string buf) ds;
  Buffer.contents buf

(* The reader makes one pass over the input, cut in place from a
   buffer: a field's end is found by the scan that parses it, and each
   record goes straight into the router being built. RTT samples land
   in two packed builders reused from router to router, so no sample
   exists as a list cell, tuple and boxed float on its way into the
   dataset, and no line, nor any number spelled as the writer spells
   it, exists as a string. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* The unread input is [buf] from [pos] to [len]; the lines before
   [lines_end] are whole, each ending in '\n'. [pos] walks the current
   line's fields, each ending at a space or the newline; [stop] is the
   newline once a field has reached it ([max_int] before), so [pos] is
   past [stop] once the last field has been taken. A channel refills
   [buf] as lines are taken; a string is one buffer with nothing more
   to read. At the end of the input a last line without its newline
   gets one. *)
type source = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable lines_end : int;
  mutable stop : int;
  ic : in_channel option;
  mutable more : bool;
}

let terminate src =
  if src.len > src.pos && Bytes.get src.buf (src.len - 1) <> '\n' then begin
    if src.len = Bytes.length src.buf then src.buf <- Bytes.extend src.buf 0 1;
    Bytes.set src.buf src.len '\n';
    src.len <- src.len + 1
  end;
  src.lines_end <- src.len

let rec last_newline buf i lo =
  if i < lo then -1 else if Bytes.get buf i = '\n' then i else last_newline buf (i - 1) lo

(* keep the unread bytes, which hold no newline, at the front of a
   buffer doubled if they fill it, and append what the channel has
   next *)
let refill src ic =
  let rem = src.len - src.pos in
  let buf =
    if rem = Bytes.length src.buf then Bytes.create (2 * rem) else src.buf
  in
  Bytes.blit src.buf src.pos buf 0 rem;
  src.buf <- buf;
  src.pos <- 0;
  src.len <- rem;
  let n = input ic buf rem (Bytes.length buf - rem) in
  if n = 0 then begin
    src.more <- false;
    terminate src
  end
  else begin
    src.len <- rem + n;
    src.lines_end <- last_newline buf (src.len - 1) rem + 1
  end

(* moves to the next line; false at the end of the input *)
let rec next_line src =
  if src.pos < src.lines_end then begin
    src.stop <- max_int;
    true
  end
  else
    match src.ic with
    | Some ic when src.more ->
        refill src ic;
        next_line src
    | _ -> false

(* moves [pos] past the field that ends at [j] on [c] *)
let past src j c =
  if c = '\n' then src.stop <- j;
  src.pos <- j + 1

let rec field_end src j =
  match Bytes.get src.buf j with ' ' | '\n' -> j | _ -> field_end src (j + 1)

let field src =
  if src.pos > src.stop then malformed "missing field";
  let i = src.pos in
  let e = field_end src i in
  past src e (Bytes.get src.buf e);
  Bytes.sub_string src.buf i (e - i)

(* the rest of the line, spaces and all *)
let rest src =
  if src.pos > src.stop then ""
  else
    let i = src.pos in
    let e = Bytes.index_from src.buf i '\n' in
    past src e '\n';
    Bytes.sub_string src.buf i (e - i)

(* Numbers are parsed in place, by the scan that finds the field's end.
   The two fast paths take the spellings the writer emits and compute
   exactly what the stdlib would; any other spelling (a sign [+], [_],
   a base prefix, an exponent, [nan], [.5], [5.], more digits) goes to
   [int_of_string_opt]/[float_of_string_opt] on a copy, so the accepted
   input, every value and every error stay theirs. A fast path scans
   from [j] to the field's end and, if the field is its spelling,
   moves past it and returns the value of the digits from [d]; if not,
   it returns a sentinel no fast value can be. *)

(* digits only: [n] is the value of those from [d] to [j]; 18 of them
   cannot overflow *)
let rec fast_int src d j n =
  match Bytes.get src.buf j with
  | '0' .. '9' as c -> fast_int src d (j + 1) ((n * 10) + Char.code c - 48)
  | (' ' | '\n') as c when j > d && j - d <= 18 ->
      past src j c;
      n
  | _ -> -1

let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15 |]

(* digits[.digits], at most 15 digits: [m] is the value of the digits
   from [d] to [j], [p] the index of the point or -1. The value is
   [m /. 10^k] with [m < 10^15]; both are exact doubles, so the one
   division rounds correctly, to the double strtod returns (Clinger's
   fast path). *)
let rec fast_float src d j m p =
  match Bytes.get src.buf j with
  | '0' .. '9' as c -> fast_float src d (j + 1) ((m * 10) + Char.code c - 48) p
  | '.' when p < 0 && j > d -> fast_float src d (j + 1) m j
  | (' ' | '\n') as c
    when j > d && p <> j - 1 && j - d <= (if p < 0 then 15 else 16) ->
      past src j c;
      float_of_int m /. pow10.(if p < 0 then 0 else j - p - 1)
  | _ -> nan

(* where the field's digits start: past a leading '-' *)
let digits_start src =
  if src.pos > src.stop then malformed "missing field";
  if Bytes.get src.buf src.pos = '-' then src.pos + 1 else src.pos

let int_field src what =
  let i = src.pos in
  let d = digits_start src in
  let n = fast_int src d d 0 in
  if n >= 0 then if d > i then -n else n
  else
    let f = field src in
    match int_of_string_opt f with Some n -> n | None -> malformed "bad %s %S" what f

let float_field src what =
  let i = src.pos in
  let d = digits_start src in
  let x = fast_float src d d 0 (-1) in
  if not (Float.is_nan x) then if d > i then -.x else x
  else
    let f = field src in
    match float_of_string_opt f with Some x -> x | None -> malformed "bad %s %S" what f

let coord_fields src =
  let lat = float_field src "latitude" in
  let lon = float_field src "longitude" in
  Coord.make ~lat ~lon

(* the router under construction; lists newest first, [truth] without
   its hostname hints *)
type partial = {
  id : int;
  mutable hostnames : string list;
  mutable asn : int option;
  mutable truth : Router.truth option;
  mutable hints : (string * string option) list;
}

let read_source src =
  let label = ref "dataset" in
  let vps = ref [] and links = ref [] and routers = ref [] in
  let ping = Rtts.builder () and trace = Rtts.builder () in
  let current = ref None in
  (* Router ids must be distinct: while they increase, as a writer
     that numbers routers in order emits them, one comparison per
     router proves it; from the first id that does not, the ids read
     so far go into a table, and each later one is looked up there. *)
  let last_id = ref min_int and seen = ref None in
  let distinct id =
    let check tbl =
      if Hashtbl.mem tbl id then malformed "duplicate router id %d" id;
      Hashtbl.replace tbl id ()
    in
    match !seen with
    | None when id > !last_id -> last_id := id
    | None ->
        let tbl = Hashtbl.create 1024 in
        List.iter (fun (r : Router.t) -> Hashtbl.replace tbl r.Router.id ()) !routers;
        seen := Some tbl;
        check tbl
    | Some tbl -> check tbl
  in
  let flush () =
    (match !current with
    | None -> ()
    | Some p ->
        let truth =
          Option.map
            (fun t -> { t with Router.hostname_hints = List.rev p.hints })
            p.truth
        in
        routers :=
          Router.make p.id ~hostnames:(List.rev p.hostnames) ?asn:p.asn
            ~ping_rtts:(Rtts.contents ping) ~trace_rtts:(Rtts.contents trace)
            ?truth
          :: !routers;
        Rtts.clear ping;
        Rtts.clear trace);
    current := None
  in
  let router tag =
    match !current with Some p -> p | None -> malformed "%s outside router" tag
  in
  let with_truth tag =
    match !current with
    | Some ({ truth = Some t; _ } as p) -> (p, t)
    | _ -> malformed "%s outside truth" tag
  in
  let sample builder tag =
    ignore (router tag);
    let vp = int_field src "VP id" in
    Rtts.add builder vp (float_field src "RTT")
  in
  let record () =
    match field src with
    | "itdk" -> label := rest src
    | "vp" ->
        let id = int_field src "VP id" in
        let name = field src in
        let coord = coord_fields src in
        vps := Vp.make ~id ~name ~city_key:(field src) ~coord :: !vps
    | "link" ->
        let a = int_field src "router id" in
        links := (a, int_field src "router id") :: !links
    | "router" ->
        let id = int_field src "router id" in
        flush ();
        distinct id;
        current := Some { id; hostnames = []; asn = None; truth = None; hints = [] }
    | "asn" -> (router "asn").asn <- Some (int_field src "ASN")
    | "host" ->
        let p = router "host" in
        p.hostnames <- field src :: p.hostnames
    | "ping" -> sample ping "ping"
    | "trace" -> sample trace "trace"
    | "truth" ->
        let p = router "truth" in
        let coord = coord_fields src in
        let stale = field src = "1" in
        p.truth <-
          Some
            { Router.city_key = field src; coord; intended_hint = None; stale;
              hostname_hints = [] };
        p.hints <- []
    | "hint" ->
        let p, t = with_truth "hint" in
        p.truth <- Some { t with Router.intended_hint = Some (field src) }
    | "hosthint" ->
        let p, _ = with_truth "hosthint" in
        let h = field src in
        let code = field src in
        p.hints <- (h, if code = "-" then None else Some code) :: p.hints
    | tag -> malformed "unknown record %s" tag
  in
  let lineno = ref 0 in
  (try
     while next_line src do
       incr lineno;
       if Bytes.get src.buf src.pos = '\n' then src.pos <- src.pos + 1
       else begin
         record ();
         if src.pos <= src.stop then malformed "extra field"
       end
     done
   with Malformed msg | Invalid_argument msg ->
     failwith (Printf.sprintf "Itdk.Io.read: line %d: %s" !lineno msg));
  flush ();
  Dataset.make ~label:!label
    ~links:(Array.of_list (List.rev !links))
    ~routers:(Array.of_list (List.rev !routers))
    ~vps:(Array.of_list (List.rev !vps))
    ()

let read ic =
  read_source
    { buf = Bytes.create 65536; pos = 0; len = 0; lines_end = 0; stop = 0; ic = Some ic;
      more = true }

let of_string s =
  let src =
    { buf = Bytes.of_string s; pos = 0; len = String.length s; lines_end = 0; stop = 0;
      ic = None; more = false }
  in
  terminate src;
  read_source src

let save path ds = Hoiho_obs.Obs.write_channel_atomic path (fun oc -> write oc ds)
let load path = In_channel.with_open_text path read
