type prog =
  | PLit of char
  | PStr of string  (* a coalesced run of literal characters *)
  | PCls of Bytes.t  (* 256-byte membership bitmap *)
  | PAny
  | PBol
  | PEol
  | PRepGreedy1 of prog * int * int option
      (* greedy repetition of a group-free width-1 atom: consume
         maximally, then retreat by plain position arithmetic *)
  | PRepPoss1 of prog * int * int option
      (* possessive repetition of a group-free width-1 atom *)
  | PRep of prog * int * int option * Ast.greed
  | PGrp of int * prog list
  | PAlt of prog list list

(* the execution form: every node is linked to its continuation at
   COMPILE time, so the matcher is one closure-free recursive function
   over pure data — no per-exec continuation closures, and [t] stays
   safely comparable with polymorphic equality (results-identity checks
   compare whole pipelines, candidates included). The continuation
   instruction is shared across alternation branches, making this a
   DAG, never a cycle. *)
type atom = ALit of char | ACls of Bytes.t | AAny

type instr =
  | IAccept
  | ILit of char * instr
  | IStr of string * instr
  | ICls of Bytes.t * instr
  | IAny of instr
  | IBol of instr
  | IEol of instr
  | IGrpStart of int * instr  (* continues into the inner chain *)
  | IGrpEnd of int * instr
  | IAlt of instr array
  | IRepG1 of atom * int * int * instr  (* max_int encodes "unbounded" *)
  | IRepP1 of atom * int * int * instr
  | IRepDyn of prog * int * int option * instr
      (* general repetition (e.g. over a capture group): rare, takes the
         closure-allocating CPS path below *)

type t = {
  prog : prog list;
  instr : instr;
  ngroups : int;
  ast : Ast.t;
  pf : Prefilter.t;
}

let compile ast =
  let counter = ref 0 in
  (* consecutive literal characters collapse into one PStr so the hot
     loop compares a substring per program node instead of entering the
     CPS matcher once per character *)
  let rec seq nodes =
    match nodes with
    | Ast.Lit a :: (Ast.Lit _ :: _ as rest0) ->
        let buf = Buffer.create 8 in
        Buffer.add_char buf a;
        let rec take = function
          | Ast.Lit c :: rest ->
              Buffer.add_char buf c;
              take rest
          | rest -> rest
        in
        let rest = take rest0 in
        let p = PStr (Buffer.contents buf) in
        p :: seq rest
    | n :: rest ->
        (* bind before consing: group numbering must be left-to-right,
           and cons arguments evaluate right-to-left *)
        let p = node n in
        p :: seq rest
    | [] -> []
  and node = function
    | Ast.Lit c -> PLit c
    | Ast.Cls c -> PCls (Ast.cls_bitmap c)
    | Ast.Any -> PAny
    | Ast.Bol -> PBol
    | Ast.Eol -> PEol
    | Ast.Rep (n, min, max, g) -> (
        match (node n, g) with
        (* width-1 group-free atoms get the closure-free paths; anything
           wrapping a capture group must take the general CPS path so
           its captures are recorded *)
        | ((PLit _ | PCls _ | PAny) as p), Ast.Greedy -> PRepGreedy1 (p, min, max)
        | ((PLit _ | PCls _ | PAny) as p), Ast.Possessive -> PRepPoss1 (p, min, max)
        | p, _ -> PRep (p, min, max, g))
    | Ast.Grp inner ->
        let idx = !counter in
        incr counter;
        (* number this group before descending so numbering is
           left-to-right outside-in, as in conventional engines *)
        PGrp (idx, seq inner)
    | Ast.Alt alts -> PAlt (List.map seq alts)
  in
  let prog = seq ast in
  let atom_of = function
    | PLit c -> ALit c
    | PCls bm -> ACls bm
    | PAny -> AAny
    | _ -> assert false (* PRepGreedy1/PRepPoss1 only wrap these *)
  in
  let bound = function Some m -> m | None -> max_int in
  let rec link items next =
    match items with [] -> next | it :: rest -> link_node it (link rest next)
  and link_node it next =
    match it with
    | PLit c -> ILit (c, next)
    | PStr s -> IStr (s, next)
    | PCls bm -> ICls (bm, next)
    | PAny -> IAny next
    | PBol -> IBol next
    | PEol -> IEol next
    | PGrp (i, inner) -> IGrpStart (i, link inner (IGrpEnd (i, next)))
    | PAlt alts -> IAlt (Array.of_list (List.map (fun a -> link a next) alts))
    | PRepGreedy1 (p, mn, mx) -> IRepG1 (atom_of p, mn, bound mx, next)
    | PRepPoss1 (p, mn, mx) -> IRepP1 (atom_of p, mn, bound mx, next)
    | PRep (p, mn, mx, _) -> IRepDyn (p, mn, mx, next)
  in
  {
    prog;
    instr = link prog IAccept;
    ngroups = !counter;
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

let matches_char p s pos =
  pos < String.length s
  &&
  match p with
  | PLit c -> String.unsafe_get s pos = c
  | PCls bm -> Bytes.unsafe_get bm (Char.code (String.unsafe_get s pos)) <> '\000'
  | PAny -> true
  | _ -> false

(* per-match scratch state: one mutable record per domain ([mstate_of]
   below), its fields overwritten per exec and its capture buffer
   re-filled for each start offset, so matching allocates nothing.
   [ncaps] is the prefix of [caps] this pattern actually uses — the
   arena array may be larger. *)
type mstate = {
  mutable str : string;
  mutable slen : int;
  mutable caps : int array;
  mutable ncaps : int;
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

let rec mseq st items pos k =
  match items with
  | [] -> k pos
  | it :: rest -> mnode st it pos (fun pos' -> mseq st rest pos' k)

and mnode st item pos k =
  let s = st.str and n = st.slen and caps = st.caps in
  match item with
  | PLit c -> pos < n && String.unsafe_get s pos = c && k (pos + 1)
  | PStr lit -> str_at s n pos lit && k (pos + String.length lit)
  | PCls bm ->
      pos < n
      && Bytes.unsafe_get bm (Char.code (String.unsafe_get s pos)) <> '\000'
      && k (pos + 1)
  | PAny -> pos < n && k (pos + 1)
  | PBol -> pos = 0 && k pos
  | PEol -> pos = n && k pos
  | PGrp (i, inner) ->
      let s0 = caps.(2 * i) and e0 = caps.((2 * i) + 1) in
      caps.(2 * i) <- pos;
      let ok =
        mseq st inner pos (fun pos' ->
            caps.((2 * i) + 1) <- pos';
            k pos')
      in
      if not ok then begin
        caps.(2 * i) <- s0;
        caps.((2 * i) + 1) <- e0
      end;
      ok
  | PAlt alts ->
      let rec try_alts = function
        | [] -> false
        | a :: rest -> mseq st a pos k || try_alts rest
      in
      try_alts alts
  | PRepGreedy1 (p, min, max) ->
      (* the dominant repetition shape ([a-z]+, \d+, [^.]+ over a
         hostname). The general path below allocates one closure per
         consumed character per attempt; here greediness is plain
         position arithmetic: consume maximally, then retreat one
         character at a time — zero allocation *)
      let rec eat count pos =
        let more =
          (match max with Some m -> count < m | None -> true)
          && matches_char p s pos
        in
        if more then eat (count + 1) (pos + 1) else pos
      in
      let hi = eat 0 pos in
      let lo = pos + min in
      hi >= lo
      &&
      let rec back p = k p || (p > lo && back (p - 1)) in
      back hi
  | PRepPoss1 (p, min, max) ->
      (* consume maximally with no backtracking; only for group-free
         width-1 atoms — a possessive repetition over a capture group
         must take the general path below so its captures are recorded
         (the fast path would silently leave them at (-1,-1)) *)
      let rec eat count pos =
        let more =
          (match max with Some m -> count < m | None -> true)
          && matches_char p s pos
        in
        if more then eat (count + 1) (pos + 1) else (count, pos)
      in
      let count, pos' = eat 0 pos in
      count >= min && k pos'
  | PRep (p, min, max, _) ->
      let rec go count pos =
        let try_more () =
          (match max with Some m -> count < m | None -> true)
          && mnode st p pos (fun pos' ->
                 (* zero-width inner match would loop forever *)
                 pos' > pos && go (count + 1) pos')
        in
        if count < min then try_more ()
        else try_more () || k pos
      in
      go 0 pos

(* invariant: a possessive repetition wrapping a group records captures
   via the general (greedy) path — possessiveness degrades to greedy
   there, but every group the match consumed has real offsets *)

(* --- the instruction-threaded matcher ---

   [run] interprets the compile-time-linked [instr] DAG: the
   continuation of every node is a field of the node, so the only
   runtime state is (instr, pos) on the OCaml stack. Nothing here
   allocates; only [IRepDyn] drops back to the closure CPS above.
   Behavior must stay exactly [mseq st t.prog pos (fun _ -> true)]. *)

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
      let limit = if mx >= st.slen - pos then st.slen else pos + mx in
      let hi = run_eat st.str a limit pos in
      let lo = pos + mn in
      hi >= lo && run_back st next lo hi
  | IRepP1 (a, mn, mx, next) ->
      let limit = if mx >= st.slen - pos then st.slen else pos + mx in
      let pos' = run_eat st.str a limit pos in
      pos' - pos >= mn && run st next pos'
  | IRepDyn (p, mn, mx, next) ->
      let rec go count pos0 =
        let try_more () =
          (match mx with Some m -> count < m | None -> true)
          && mnode st p pos0 (fun pos' -> pos' > pos0 && go (count + 1) pos')
        in
        if count < mn then try_more () else try_more () || run st next pos0
      in
      go 0 pos

and run_alt st branches pos j =
  j < Array.length branches
  && (run st branches.(j) pos || run_alt st branches pos (j + 1))

and run_eat s a limit pos =
  if pos < limit && matches_atom a s pos then run_eat s a limit (pos + 1)
  else pos

and run_back st next lo p =
  run st next p || (p > lo && run_back st next lo (p - 1))

let exec_at t st start =
  Array.fill st.caps 0 st.ncaps (-1);
  run st t.instr start

let anchored t = match t.prog with PBol :: _ -> true | _ -> false

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
   per domain serves every call — zero per-exec allocation. Each
   [exec_at] attempt re-fills the first [ncaps] capture slots, which
   doubles as the arena reset. *)
let mstate_arena : mstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { str = ""; slen = 0; caps = [||]; ncaps = 0 })

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
