(* Literal prefiltering for the backtracking engine.

   From a pattern AST we extract *necessary* conditions — facts that
   hold of every string the pattern matches — cheap enough to check
   with plain byte scans:

   - a [required] literal: a contiguous run of characters that appears
     verbatim in every match, optionally at a statically known
     [offset] from the match start (then its occurrences enumerate the
     only start offsets worth trying);
   - [extras]: further literals that must also appear somewhere, from
     other mandatory runs;
   - a [tail] literal pinned at a fixed distance from the END of the
     subject, for patterns anchored with [$] (the dominant shape here:
     every learned regex ends in a literal domain suffix);
   - [needs_digit]: the pattern contains a mandatory digit-class atom,
     so a subject without any ASCII digit can never match.

   Everything here computes necessary conditions only: a possessive
   quantifier matches a subset of what its greedy form matches, so
   greedy-based requiredness stays sound for possessive patterns, and
   an unsatisfiable pattern vacuously satisfies any claim. *)

type t = {
  anchored : bool;  (* pattern begins with ^ *)
  required : string;  (* "" when no literal is required *)
  offset : int option;
      (* distance from match start to [required], when every atom
         before the literal has a statically fixed width *)
  extras : string list;
      (* other literals every match must contain somewhere (at most 2,
         longest first, none implied by [required] or [tail]) *)
  tail : (string * int) option;
      (* (lit, dist): [lit] ends exactly [dist] bytes before the end of
         the subject; only for patterns ending in $ *)
  needs_digit : bool;  (* some mandatory atom matches only digits *)
}

(* --- static widths --- *)

let rec node_width = function
  | Ast.Lit _ | Ast.Cls _ | Ast.Any -> Some 1
  | Ast.Bol | Ast.Eol -> Some 0
  | Ast.Rep (_, min, Some max, _) when max = min -> Some min
  | Ast.Rep _ -> None
  | Ast.Grp inner -> seq_width inner

and seq_width nodes =
  List.fold_left
    (fun acc n ->
      match (acc, node_width n) with
      | Some a, Some w -> Some (a + w)
      | _ -> None)
    (Some 0) nodes

(* --- fast substring scan --- *)

(* naive scan with an unsafe first-character skip loop; needles here are
   short (pattern literals), haystacks are hostnames *)
let find ~needle hay start =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then if start <= hl then max start 0 else -1
  else begin
    let c0 = String.unsafe_get needle 0 in
    let limit = hl - nl in
    let rec at i =
      if i > limit then -1
      else if String.unsafe_get hay i <> c0 then at (i + 1)
      else begin
        let rec cmp j =
          j >= nl
          || String.unsafe_get hay (i + j) = String.unsafe_get needle j
             && cmp (j + 1)
        in
        if cmp 1 then i else at (i + 1)
      end
    in
    at (max start 0)
  end

let matches_at ~needle hay i =
  let nl = String.length needle in
  i >= 0
  && i + nl <= String.length hay
  &&
  let rec cmp j =
    j >= nl
    || String.unsafe_get hay (i + j) = String.unsafe_get needle j && cmp (j + 1)
  in
  cmp 0

let contains ~needle hay = find ~needle hay 0 >= 0

(* --- literal-run extraction --- *)

(* a class whose every range lies in '0'..'9' matches only digits; an
   empty positive class matches nothing at all, which makes the pattern
   unsatisfiable — any claim about its matches is then vacuously true,
   but we do not claim digits for it to keep reasoning local *)
let cls_all_digits (c : Ast.cls) =
  (not c.Ast.neg)
  && c.Ast.ranges <> []
  && List.for_all (fun (lo, hi) -> lo >= '0' && hi <= '9') c.Ast.ranges

type walk = {
  mutable runs : (string * int option) list;
  buf : Buffer.t;
  mutable run_off : int option;  (* offset of the run being built *)
  mutable pos : int option;  (* current offset from match start *)
  mutable digit : bool;  (* saw a mandatory digit-only atom *)
}

let flush w =
  if Buffer.length w.buf > 0 then begin
    w.runs <- (Buffer.contents w.buf, w.run_off) :: w.runs;
    Buffer.clear w.buf
  end

let advance w d = w.pos <- Option.map (( + ) d) w.pos

let add_lit w c =
  if Buffer.length w.buf = 0 then w.run_off <- w.pos;
  Buffer.add_char w.buf c;
  advance w 1

(* a character repeated more than this many times is unrolled no
   further; runs just break there *)
let max_unroll = 8

(* one character of every match *)
let walk_atom w : Ast.atom -> unit = function
  | Ast.Lit c -> add_lit w c
  | Ast.Cls c ->
      if cls_all_digits c then w.digit <- true;
      flush w;
      advance w 1
  | Ast.Any ->
      flush w;
      advance w 1

let rec walk_node w = function
  | Ast.Lit c -> walk_atom w (Ast.Lit c)
  | Ast.Cls c -> walk_atom w (Ast.Cls c)
  | Ast.Any -> walk_atom w Ast.Any
  | Ast.Bol | Ast.Eol -> flush w
  | Ast.Grp inner -> List.iter (walk_node w) inner
  | Ast.Rep (a, min, max, _) ->
      (* [min] mandatory copies, contiguous: unrolled when few, else
         a fixed-width gap that still pins a digit requirement *)
      if min >= 1 && min <= max_unroll then
        for _ = 1 to min do
          walk_atom w a
        done
      else begin
        (match a with
        | Ast.Cls c when min >= 1 && cls_all_digits c -> w.digit <- true
        | _ -> ());
        flush w;
        advance w min
      end;
      (* a variable tail ends the run and the known offset *)
      if max <> Some min then begin
        flush w;
        w.pos <- None
      end

(* --- tail extraction --- *)

(* walk the pattern back-to-front from a trailing $, accumulating the
   statically known distance to the subject's end, and return the
   literal run nearest the end together with that distance. Zero-width
   assertions are transparent (they never move the end distance); the
   walk stops at the first variable-width construct. *)
let tail_of ast =
  match List.rev ast with
  | Ast.Eol :: rev_nodes ->
      let buf = Buffer.create 16 in
      let dist = ref 0 in
      let result = ref None in
      let finalize () =
        if !result = None && Buffer.length buf > 0 then begin
          let n = Buffer.length buf in
          (* the buffer holds the run's characters in reverse *)
          let lit = String.init n (fun i -> Buffer.nth buf (n - 1 - i)) in
          result := Some (lit, !dist)
        end
      in
      let exception Stop in
      let rec node n =
        match n with
        | Ast.Lit c -> Buffer.add_char buf c
        | Ast.Bol | Ast.Eol -> ()
        | Ast.Grp inner -> List.iter node (List.rev inner)
        | Ast.Rep (Ast.Lit c, min, Some m, _) when m = min && min <= max_unroll ->
            Buffer.add_string buf (String.make min c)
        | other -> (
            match node_width other with
            | Some w ->
                if Buffer.length buf > 0 then begin
                  finalize ();
                  raise Stop
                end
                else dist := !dist + w
            | None ->
                finalize ();
                raise Stop)
      in
      (try List.iter node rev_nodes with Stop -> ());
      finalize ();
      !result
  | _ -> None

(* --- analysis --- *)

let max_extras = 2

let analyze (ast : Ast.t) =
  let anchored = match ast with Ast.Bol :: _ -> true | _ -> false in
  let w =
    { runs = []; buf = Buffer.create 16; run_off = None; pos = Some 0; digit = false }
  in
  List.iter (walk_node w) ast;
  flush w;
  let runs = List.rev w.runs in
  (* longest run wins; on ties prefer one with a known offset, then the
     leftmost *)
  let best =
    List.fold_left
      (fun acc (s, off) ->
        match acc with
        | None -> Some (s, off)
        | Some (bs, boff) ->
            let better =
              String.length s > String.length bs
              || (String.length s = String.length bs && boff = None && off <> None)
            in
            if better then Some (s, off) else acc)
      None runs
  in
  let required, offset =
    match best with None -> ("", None) | Some (r, o) -> (r, o)
  in
  let tail = tail_of ast in
  let tail_lit = match tail with Some (l, _) -> l | None -> "" in
  (* a run contained in [required] or in the tail literal is implied by
     those checks already; keep the longest independent ones *)
  let extras =
    List.map fst runs
    |> List.sort_uniq compare
    |> List.filter (fun l ->
           String.length l >= 2
           && (required = "" || not (contains ~needle:l required))
           && (tail_lit = "" || not (contains ~needle:l tail_lit)))
    |> List.sort (fun a b -> compare (String.length b) (String.length a))
    |> List.filteri (fun i _ -> i < max_extras)
  in
  { anchored; required; offset; extras; tail; needs_digit = w.digit }
