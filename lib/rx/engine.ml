(* the one compiled form: every node is linked to its continuation at
   COMPILE time, so the matcher is one closure-free recursive function
   over pure data — no per-exec continuation closures, and [t] stays
   safely comparable with polymorphic equality (results-identity checks
   compare whole pipelines, candidates included). The continuation
   instruction is shared across alternation branches, and a general
   repetition's body ends in the constant [ILoop] rather than pointing
   back at its [IRep], so the program is a DAG, never a cycle. *)
type atom = ALit of char | ACls of Bytes.t | AAny

type instr =
  | IAccept
  | ILit of char * instr
  | IStr of string * instr  (* a coalesced run of literal characters *)
  | ICls of Bytes.t * instr  (* 256-byte membership bitmap *)
  | IAny of instr
  | IBol of instr
  | IEol of instr
  | IGrpStart of int * instr  (* continues into the inner chain *)
  | IGrpEnd of int * instr
  | IAlt of instr array
  | IRepG1 of atom * int * int * instr
      (* greedy repetition of a width-1 atom; max_int encodes
         "unbounded" *)
  | IRepP1 of atom * int * int * instr  (* possessive, width-1 atom *)
  | IRep of rep
      (* any other repetition: over a group, an alternation, or
         anything containing another repetition *)
  | ILoop  (* end of a [rep] body: resume the innermost repetition *)

and rep = { body : instr; min : int; max : int; next : instr }

type t = { instr : instr; ngroups : int; ast : Ast.t; pf : Prefilter.t }

let compile ast =
  let atom = function
    | Ast.Lit c -> Some (ALit c)
    | Ast.Cls c -> Some (ACls (Ast.cls_bitmap c))
    | Ast.Any -> Some AAny
    | _ -> None
  in
  (* groups number left to right, outside in, as in conventional
     engines, but linking runs right to left: [g] is the number of the
     first group in [nodes] *)
  let rec link g nodes next =
    match nodes with
    | [] -> next
    | Ast.Lit _ :: Ast.Lit _ :: _ ->
        (* consecutive literal characters collapse into one [IStr] so
           the hot loop compares a substring per instruction *)
        let rec lits acc = function
          | Ast.Lit c :: rest -> lits (c :: acc) rest
          | rest -> (String.of_seq (List.to_seq (List.rev acc)), rest)
        in
        let lit, rest = lits [] nodes in
        IStr (lit, link g rest next)
    | n :: rest -> node g n (link (g + Ast.count_groups [ n ]) rest next)
  and node g n next =
    match n with
    | Ast.Lit c -> ILit (c, next)
    | Ast.Cls c -> ICls (Ast.cls_bitmap c, next)
    | Ast.Any -> IAny next
    | Ast.Bol -> IBol next
    | Ast.Eol -> IEol next
    | Ast.Grp inner -> IGrpStart (g, link (g + 1) inner (IGrpEnd (g, next)))
    | Ast.Alt alts ->
        let rec branches g = function
          | [] -> []
          | a :: rest -> link g a next :: branches (g + Ast.count_groups a) rest
        in
        IAlt (Array.of_list (branches g alts))
    | Ast.Rep (body, min, max, greed) -> (
        let max = Option.value max ~default:max_int in
        match (atom body, greed) with
        | Some a, Ast.Greedy -> IRepG1 (a, min, max, next)
        | Some a, Ast.Possessive -> IRepP1 (a, min, max, next)
        (* a possessive quantifier over anything wider degrades to
           greedy, so every group the match consumed has real offsets *)
        | None, _ -> IRep { body = node g body ILoop; min; max; next })
  in
  {
    instr = link 0 ast IAccept;
    ngroups = Ast.count_groups ast;
    ast;
    pf = Prefilter.analyze ast;
  }

let compile_string s = Result.map compile (Parse.parse s)

let compile_exn s =
  match compile_string s with
  | Ok t -> t
  | Error msg -> invalid_arg (Printf.sprintf "Rx.Engine.compile_exn: %s in %S" msg s)

let ast t = t.ast
let source t = Ast.to_string t.ast
let group_count t = t.ngroups
let prefilter t = t.pf

module Obs = Hoiho_obs.Obs

(* engine effectiveness counters, process-wide (see DESIGN.md §7):
   [rx.exec_calls] counts prefiltered searches, [rx.prefilter_skips]
   those rejected by the literal scan without running the backtracker,
   and [rx.backtrack_attempts] the start offsets retried beyond each
   search's first attempt *)
let c_calls = Obs.counter "rx.exec_calls"
let c_skips = Obs.counter "rx.prefilter_skips"
let c_backtracks = Obs.counter "rx.backtrack_attempts"
let c_oversized = Obs.counter "rx.oversized_inputs"

(* DNS caps a name at 255 octets; anything longer is garbage (or an
   attack on the backtracker) and is rejected before any matching.
   Generous headroom over the RFC limit so escaped/decorated forms
   still match. Applied identically to the prefiltered and unfiltered
   search paths, which must stay behaviorally equivalent. *)
let max_subject_len = 1024

let subject_ok s =
  String.length s <= max_subject_len
  ||
  (Obs.incr c_oversized;
   false)
let prefilter_stats () = (Obs.count c_calls, Obs.count c_skips)

(* the iteration frames of the general repetitions entered but not
   yet left, innermost first: the repetition, the iterations it has
   done and where the current one started *)
type frames = Top | Iter of rep * int * int * frames

(* per-match scratch state: one mutable record per domain ([mstate_of]
   below), its fields overwritten per exec and its capture buffer
   re-filled for each start offset, so matching allocates nothing but
   one frame per general-repetition iteration. [ncaps] is the prefix
   of [caps] this pattern actually uses — the arena array may be
   larger. *)
type mstate = {
  mutable str : string;
  mutable slen : int;
  mutable caps : int array;
  mutable ncaps : int;
  mutable frames : frames;
}

let str_at s n pos lit =
  let l = String.length lit in
  pos + l <= n
  &&
  let rec cmp j =
    j >= l
    || String.unsafe_get s (pos + j) = String.unsafe_get lit j && cmp (j + 1)
  in
  cmp 0

(* --- the matcher ---

   [run] interprets the compile-time-linked [instr] DAG: the
   continuation of every node is a field of the node, so the runtime
   state is (instr, pos) on the OCaml stack plus the frame stack of
   the general repetitions in progress. *)

let matches_atom a s pos =
  match a with
  | ALit c -> String.unsafe_get s pos = c
  | ACls bm -> Bytes.unsafe_get bm (Char.code (String.unsafe_get s pos)) <> '\000'
  | AAny -> true

let rec run st i pos =
  match i with
  | IAccept -> true
  | ILit (c, next) ->
      pos < st.slen && String.unsafe_get st.str pos = c && run st next (pos + 1)
  | IStr (lit, next) ->
      str_at st.str st.slen pos lit && run st next (pos + String.length lit)
  | ICls (bm, next) ->
      pos < st.slen
      && Bytes.unsafe_get bm (Char.code (String.unsafe_get st.str pos)) <> '\000'
      && run st next (pos + 1)
  | IAny next -> pos < st.slen && run st next (pos + 1)
  | IBol next -> pos = 0 && run st next pos
  | IEol next -> pos = st.slen && run st next pos
  | IGrpStart (g, next) ->
      let caps = st.caps in
      let s0 = caps.(2 * g) and e0 = caps.((2 * g) + 1) in
      caps.(2 * g) <- pos;
      let ok = run st next pos in
      if not ok then begin
        caps.(2 * g) <- s0;
        caps.((2 * g) + 1) <- e0
      end;
      ok
  | IGrpEnd (g, next) ->
      st.caps.((2 * g) + 1) <- pos;
      run st next pos
  | IAlt branches -> run_alt st branches pos 0
  | IRepG1 (a, mn, mx, next) ->
      (* the dominant repetition shape ([a-z]+, \d+, [^.]+ over a
         hostname): consume maximally, then retreat one character at a
         time *)
      let limit = if mx >= st.slen - pos then st.slen else pos + mx in
      let hi = run_eat st.str a limit pos in
      let lo = pos + mn in
      hi >= lo && run_back st next lo hi
  | IRepP1 (a, mn, mx, next) ->
      let limit = if mx >= st.slen - pos then st.slen else pos + mx in
      let pos' = run_eat st.str a limit pos in
      pos' - pos >= mn && run st next pos'
  | IRep r -> run_rep st r 0 pos
  | ILoop -> (
      match st.frames with
      | Iter (r, count, start, up) as frame ->
          st.frames <- up;
          (* an iteration that matched nothing counts toward the
             minimum; once the minimum is met it ends the repetition,
             keeping its captures (the rule of Perl and Python's re),
             so a nullable body cannot loop forever *)
          let ok =
            if pos = start && count + 1 >= r.min then run st r.next pos
            else run_rep st r (count + 1) pos
          in
          st.frames <- frame;
          ok
      | Top -> false (* unreachable: an [ILoop] only ends a [rep] body *))

and run_alt st branches pos j =
  j < Array.length branches
  && (run st branches.(j) pos || run_alt st branches pos (j + 1))

and run_eat s a limit pos =
  if pos < limit && matches_atom a s pos then run_eat s a limit (pos + 1)
  else pos

and run_back st next lo p =
  run st next p || (p > lo && run_back st next lo (p - 1))

(* greedy: one more iteration first, the continuation after *)
and run_rep st r count pos =
  (count < r.max
  &&
  let up = st.frames in
  st.frames <- Iter (r, count, pos, up);
  let ok = run st r.body pos in
  st.frames <- up;
  ok)
  || (count >= r.min && run st r.next pos)

let exec_at t st start =
  Array.fill st.caps 0 st.ncaps (-1);
  st.frames <- Top;
  run st t.instr start

let anchored t = t.pf.Prefilter.anchored

(* the unfiltered reference search: retry at every start offset *)
let try_every t st =
  let anchored = anchored t in
  let rec try_from retries start =
    if start > st.slen then (retries, false)
    else if exec_at t st start then (retries, true)
    else if anchored then (retries, false)
    else try_from (retries + 1) (start + 1)
  in
  let retries, ok = try_from 0 0 in
  Obs.add c_backtracks retries;
  ok

let has_digit s =
  let n = String.length s in
  let rec go i =
    i < n
    &&
    let c = String.unsafe_get s i in
    (c >= '0' && c <= '9') || go (i + 1)
  in
  go 0

(* the global necessary conditions — tail literal at a fixed distance
   from the subject's end, extra required literals, mandatory digit —
   hold wherever the match starts, so they run once per subject before
   any start-offset enumeration *)
let prefilter_plausible pf s slen =
  (match pf.Prefilter.tail with
  | Some (lit, dist) ->
      Prefilter.matches_at ~needle:lit s (slen - dist - String.length lit)
  | None -> true)
  && ((not pf.Prefilter.needs_digit) || has_digit s)
  && (match pf.Prefilter.extras with
     | [] -> true
     | extras -> List.for_all (fun l -> Prefilter.contains ~needle:l s) extras)

(* prefiltered search; must accept exactly the same strings, with the
   same captures, as [try_every] *)
let search t st =
  Obs.incr c_calls;
  let pf = t.pf in
  let s = st.str in
  if not (prefilter_plausible pf s st.slen) then begin
    Obs.incr c_skips;
    false
  end
  else if pf.Prefilter.required = "" then try_every t st
  else if anchored t then begin
    let plausible =
      match pf.Prefilter.offset with
      | Some d -> Prefilter.matches_at ~needle:pf.Prefilter.required s d
      | None -> Prefilter.contains ~needle:pf.Prefilter.required s
    in
    if not plausible then begin
      Obs.incr c_skips;
      false
    end
    else exec_at t st 0
  end
  else begin
    match pf.Prefilter.offset with
    | Some d -> (
        (* a match starting at p places the literal at p + d, so the
           literal's occurrences enumerate every viable start *)
        match Prefilter.find ~needle:pf.Prefilter.required s 0 with
        | -1 ->
            Obs.incr c_skips;
            false
        | first ->
            let attempts = ref 0 in
            let rec scan i =
              i >= 0
              && ((i >= d
                  &&
                  (incr attempts;
                   exec_at t st (i - d)))
                 || scan (Prefilter.find ~needle:pf.Prefilter.required s (i + 1)))
            in
            let ok = scan first in
            Obs.add c_backtracks (max 0 (!attempts - 1));
            ok)
    | None ->
        if not (Prefilter.contains ~needle:pf.Prefilter.required s) then begin
          Obs.incr c_skips;
          false
        end
        else try_every t st
  end

(* per-domain match arena: exec'ing a pattern is not re-entrant within
   one domain (no callback runs inside [search], and [extract] reads
   the captures before any further exec), so one mutable state record
   per domain serves every call. Each [exec_at] attempt re-fills the
   first [ncaps] capture slots and empties the frame stack, which
   doubles as the arena reset. *)
let mstate_arena : mstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { str = ""; slen = 0; caps = [||]; ncaps = 0; frames = Top })

let mstate_of t s =
  let want = 2 * t.ngroups in
  let st = Domain.DLS.get mstate_arena in
  if Array.length st.caps < want then st.caps <- Array.make (max want 16) (-1);
  st.str <- s;
  st.slen <- String.length s;
  st.ncaps <- want;
  st

let extract t st =
  Array.init t.ngroups (fun i ->
      let st_i = st.caps.(2 * i) and en = st.caps.((2 * i) + 1) in
      (* the upper-bound check is defensive: no backtracker bug (or
         adversarial subject) may turn a capture into an out-of-bounds
         String.sub *)
      if st_i < 0 || en < st_i || en > st.slen then None
      else Some (String.sub st.str st_i (en - st_i)))

module Trace = Hoiho_obs.Trace

let exec_raw t s =
  let st = mstate_of t s in
  if search t st then Some (extract t st) else None

(* tracing exec is far too hot to span every call; when tracing is on,
   a deterministic 1-in-64 sample keyed on the subject's bytes (never
   on scheduling) records the regex, subject and verdict *)
let exec t s =
  if not (subject_ok s) then None
  else if Trace.enabled () && Trace.sampled s then
    Trace.with_span "rx.exec"
      ~attrs:[ ("regex", source t); ("subject", s) ]
      (fun () ->
        let r = exec_raw t s in
        Trace.add_attr "matched" (string_of_bool (r <> None));
        r)
  else exec_raw t s

let exec_unfiltered t s =
  if not (subject_ok s) then None
  else
    let st = mstate_of t s in
    if try_every t st then Some (extract t st) else None

let matches t s =
  subject_ok s
  &&
  let st = mstate_of t s in
  search t st
