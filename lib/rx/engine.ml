(* the one compiled form: every node is linked to its continuation at
   COMPILE time, so the matcher is one closure-free recursive function
   over pure data — no per-exec continuation closures, and [t] stays
   safely comparable with polymorphic equality (results-identity checks
   compare whole pipelines, candidates included). The dialect has no
   alternation and repeats single characters only, so the program is
   a chain: every instruction has exactly one continuation. *)
type atom = ALit of char | ACls of Bytes.t | AAny

type instr =
  | IAccept
  | ILit of char * instr
  | IStr of string * instr  (* a coalesced run of literal characters *)
  | ICls of Bytes.t * instr  (* 256-byte membership bitmap *)
  | IAny of instr
  | IBol of instr
  | IEol of instr
  | IGrpStart of int * instr
  | IGrpEnd of int * instr
  (* a repetition of [atom]: [row] numbers its slice of the failure
     memo, and [max = max_int] encodes "unbounded" *)
  | IGreedy of { row : int; atom : atom; min : int; max : int; next : instr }
  | IPossessive of { row : int; atom : atom; min : int; max : int; next : instr }

type t = { instr : instr; ngroups : int; nreps : int; ast : Ast.t }

let compile ast =
  let nreps = ref 0 in
  let of_atom : Ast.atom -> atom = function
    | Ast.Lit c -> ALit c
    | Ast.Cls c -> ACls (Ast.cls_bitmap c)
    | Ast.Any -> AAny
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
    | Ast.Rep (a, min, max, greed) -> (
        let row = !nreps and atom = of_atom a and max = Option.value max ~default:max_int in
        incr nreps;
        match greed with
        | Ast.Greedy -> IGreedy { row; atom; min; max; next }
        | Ast.Possessive -> IPossessive { row; atom; min; max; next })
  in
  let instr = link 0 ast IAccept in
  { instr; ngroups = Ast.count_groups ast; nreps = !nreps; ast }

let compile_string s = Result.map compile (Parse.parse s)

let compile_exn s =
  match compile_string s with
  | Ok t -> t
  | Error msg -> invalid_arg (Printf.sprintf "Rx.Engine.compile_exn: %s in %S" msg s)

let source t = Ast.to_string t.ast
let group_count t = t.ngroups

module Obs = Hoiho_obs.Obs

(* engine effectiveness counters, process-wide (see DESIGN.md §7):
   [rx.exec_calls] counts searches and [rx.backtrack_attempts] the
   start offsets retried beyond each search's first attempt *)
let c_calls = Obs.counter "rx.exec_calls"
let c_backtracks = Obs.counter "rx.backtrack_attempts"
let c_oversized = Obs.counter "rx.oversized_inputs"

(* DNS caps a name at 255 octets; anything longer is garbage (or an
   attack on the backtracker) and is rejected before any matching.
   Generous headroom over the RFC limit so escaped/decorated forms
   still match. Applied identically to the memoized search and the
   memo-free reference, which must stay behaviorally equivalent. *)
let max_subject_len = 1024

let subject_ok s =
  String.length s <= max_subject_len
  ||
  (Obs.incr c_oversized;
   false)

(* kept for bench/perf, which reads a skip count beside the calls;
   with one search nothing is skipped *)
let prefilter_stats () = (Obs.count c_calls, 0)

(* per-search scratch state: one mutable record per domain
   ([mstate_of] below), its fields overwritten per search, so matching
   allocates nothing. A pattern uses the first [2 * ngroups] slots of
   [caps] and the first [nreps * (slen + 1)] of [memo]; either arena
   array may be larger. *)
type mstate = {
  mutable str : string;
  mutable slen : int;
  mutable caps : int array;
  mutable memo : int array;
      (* [memo.(row * (slen + 1) + pos) = gen]: repetition [row]'s
         continuation failed from [pos] in this search *)
  mutable gen : int;  (* bumped per search, which empties the memo *)
  mutable record : bool;  (* false only in the memo-free reference search *)
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

   [run] interprets the compile-time-linked [instr] chain; its whole
   state is (instr, pos), since no instruction loops back. So whether
   the match succeeds from a state depends on nothing else, and the
   failed ones are worth remembering: every repetition records in the
   memo each continuation position that failed and never tries it
   again in the same search (the idea of RE2's bit-state backtracker).
   Captures need no undo on failure: every group lies on every path to
   [IAccept], so the successful path writes each slot last. *)

let matches_atom a s pos =
  match a with
  | ALit c -> String.unsafe_get s pos = c
  | ACls bm -> Bytes.unsafe_get bm (Char.code (String.unsafe_get s pos)) <> '\000'
  | AAny -> true

(* where a repetition of at most [max] from [pos] must stop *)
let limit st max pos = if max >= st.slen - pos then st.slen else pos + max

let rec eat s a limit pos =
  if pos < limit && matches_atom a s pos then eat s a limit (pos + 1) else pos

(* an unbounded greedy repetition stops eating at the first position
   the memo marks: its continuations are tried from the right, so a
   mark at [q] means every continuation from [q] to the end of the
   atom's run has failed, and with no upper bound the loop entered
   anywhere in that range reaches only those. It returns the last
   position worth trying. *)
let rec eat_live st a base pos =
  if Array.unsafe_get st.memo (base + pos) = st.gen then pos - 1
  else if pos < st.slen && matches_atom a st.str pos then eat_live st a base (pos + 1)
  else pos

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
      st.caps.(2 * g) <- pos;
      run st next pos
  | IGrpEnd (g, next) ->
      st.caps.((2 * g) + 1) <- pos;
      run st next pos
  | IGreedy { row; atom; min; max; next } ->
      (* consume maximally, then retreat one character at a time *)
      let base = row * (st.slen + 1) in
      let hi =
        if max = max_int then eat_live st atom base pos
        else eat st.str atom (limit st max pos) pos
      in
      let lo = pos + min in
      hi >= lo && run_back st next base lo hi
  | IPossessive { row; atom; min; max; next } ->
      let pos' = eat st.str atom (limit st max pos) pos in
      pos' - pos >= min && attempt st next (row * (st.slen + 1)) pos'

and run_back st next base lo p =
  attempt st next base p || (p > lo && run_back st next base lo (p - 1))

(* the continuation at [p], unless the memo has it as failed; a
   failure is recorded *)
and attempt st next base p =
  let key = base + p in
  Array.unsafe_get st.memo key <> st.gen
  && (run st next p
     ||
     (if st.record then Array.unsafe_set st.memo key st.gen;
      false))

let anchored t = match t.ast with Ast.Bol :: _ -> true | _ -> false

(* the one search: an anchored pattern is tried at position 0, any
   other at every start offset, all under one memo (see [mstate_arena]) *)
let search t st =
  Obs.incr c_calls;
  let last = if anchored t then 0 else st.slen in
  let rec from start =
    let ok = run st t.instr start in
    if ok || start = last then begin
      Obs.add c_backtracks start;
      ok
    end
    else from (start + 1)
  in
  from 0

(* per-domain match arena: exec'ing a pattern is not re-entrant within
   one domain (no callback runs inside [search], and [extract] reads
   the captures before any further exec), so one mutable state record
   per domain serves every call. Each search re-fills the pattern's
   capture slots and bumps [gen], which empties the memo: the
   arena reset is O(groups), whatever the memo's size. The memo keeps
   across a search's start offsets, since a state's outcome does not
   depend on where the match began. *)
let mstate_arena : mstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { str = ""; slen = 0; caps = [||]; memo = [||]; gen = 0; record = true })

let mstate_of ~record t s =
  let st = Domain.DLS.get mstate_arena in
  let want = 2 * t.ngroups in
  if Array.length st.caps < want then st.caps <- Array.make (max want 16) (-1);
  Array.fill st.caps 0 want (-1);
  let slen = String.length s in
  let cells = t.nreps * (slen + 1) in
  if Array.length st.memo < cells then
    st.memo <- Array.make (max cells (2 * Array.length st.memo)) 0;
  st.str <- s;
  st.slen <- slen;
  st.gen <- st.gen + 1;
  st.record <- record;
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

let exec_raw ~record t s =
  let st = mstate_of ~record t s in
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
        let r = exec_raw ~record:true t s in
        Trace.add_attr "matched" (string_of_bool (r <> None));
        r)
  else exec_raw ~record:true t s

let exec_memo_free t s = if not (subject_ok s) then None else exec_raw ~record:false t s

let matches t s =
  subject_ok s
  &&
  let st = mstate_of ~record:true t s in
  search t st
