module Ast = Hoiho_rx.Ast

type inst =
  | IChar of Bytes.t option  (** class membership bitmap; [None] = any char *)
  | ILit of char
  | ISplit of int * int
  | IJump of int
  | IBol
  | IEol
  | IMatch

type t = { prog : inst array; match_pc : int }

let rec supported ast =
  List.for_all
    (function
      | Ast.Rep (_, _, _, Ast.Possessive) -> false
      | Ast.Grp inner -> supported inner
      | _ -> true)
    ast

(* emit instructions into a growable array so jump targets can be
   patched after their destinations are known *)
let compile ast =
  if not (supported ast) then
    invalid_arg "Nfavm.compile: possessive quantifiers are unsupported";
  let buf = ref (Array.make 64 IMatch) in
  let len = ref 0 in
  let emit inst =
    if !len = Array.length !buf then begin
      let bigger = Array.make (2 * !len) IMatch in
      Array.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    !buf.(!len) <- inst;
    incr len;
    !len - 1
  in
  let patch idx inst = !buf.(idx) <- inst in
  let atom : Ast.atom -> unit = function
    | Ast.Lit c -> ignore (emit (ILit c))
    | Ast.Cls c -> ignore (emit (IChar (Some (Ast.cls_bitmap c))))
    | Ast.Any -> ignore (emit (IChar None))
  in
  let rec seq nodes = List.iter node nodes
  and node = function
    | Ast.Lit c -> atom (Ast.Lit c)
    | Ast.Cls c -> atom (Ast.Cls c)
    | Ast.Any -> atom Ast.Any
    | Ast.Bol -> ignore (emit IBol)
    | Ast.Eol -> ignore (emit IEol)
    | Ast.Grp inner -> seq inner
    | Ast.Rep (a, min, max, _) -> rep a min max
  and rep a min max =
    (* unroll: min mandatory copies, then (max-min) optional copies or a
       star loop *)
    for _ = 1 to min do
      atom a
    done;
    match max with
    | Some m ->
        (* each optional copy: split(next, end-of-all) *)
        let skips = ref [] in
        for _ = 1 to m - min do
          let split = emit (IJump (-1)) in
          skips := split :: !skips;
          atom a
        done;
        let after = !len in
        List.iter (fun s -> patch s (ISplit (s + 1, after))) !skips
    | None ->
        (* star: L: split(L+1, after); body; jump L; after: *)
        let split = emit (IJump (-1)) in
        atom a;
        ignore (emit (IJump split));
        patch split (ISplit (split + 1, !len))
  in
  seq ast;
  ignore (emit IMatch);
  (* exactly one IMatch is emitted, as the last instruction *)
  { prog = Array.sub !buf 0 !len; match_pc = !len - 1 }

let program_size t = Array.length t.prog

(* Pike-style sparse thread set: a dense array of live pcs plus a
   per-pc generation stamp. Membership is one array read, clearing is a
   generation bump — no per-position allocation at all. *)
type sset = {
  dense : int array;
  stamp : int array;
  mutable gen : int;
  mutable n : int;
}

let sset_make size =
  let size = max size 1 in
  { dense = Array.make size 0; stamp = Array.make size 0; gen = 1; n = 0 }

let sset_mem s pc = Array.unsafe_get s.stamp pc = s.gen

let sset_add s pc =
  Array.unsafe_set s.stamp pc s.gen;
  Array.unsafe_set s.dense s.n pc;
  s.n <- s.n + 1

let sset_clear s =
  s.gen <- s.gen + 1;
  s.n <- 0

(* epsilon-closure insertion of a thread at [pc], honoring assertions *)
let rec add_thread prog set pos len pc =
  if pc < Array.length prog && not (sset_mem set pc) then begin
    sset_add set pc;
    match prog.(pc) with
    | ISplit (a, b) ->
        add_thread prog set pos len a;
        add_thread prog set pos len b
    | IJump a -> add_thread prog set pos len a
    | IBol -> if pos = 0 then add_thread prog set pos len (pc + 1)
    | IEol -> if pos = len then add_thread prog set pos len (pc + 1)
    | ILit _ | IChar _ | IMatch -> ()
  end

(* per-domain scratch pair: the two thread sets survive across calls
   (grown to the largest program seen on this domain) and are cleared
   by a generation bump, so [matches] allocates nothing per call.
   [matches] is not re-entrant within a domain — nothing here calls
   back into user code — and distinct domains get distinct pairs. *)
let scratch : (sset * sset) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (sset_make 1, sset_make 1))

let matches t s =
  let prog = t.prog in
  let psize = Array.length prog in
  let len = String.length s in
  let r = Domain.DLS.get scratch in
  let a, b =
    let a, _ = !r in
    if Array.length a.dense < psize then begin
      let pair = (sset_make psize, sset_make psize) in
      r := pair;
      pair
    end
    else !r
  in
  sset_clear a;
  sset_clear b;
  let current = ref a in
  let next = ref b in
  let result = ref false in
  add_thread prog !current 0 len 0;
  let pos = ref 0 in
  while (not !result) && !pos <= len do
    let cur = !current in
    (* the single IMatch pc makes acceptance one membership probe *)
    if sset_mem cur t.match_pc then result := true
    else begin
      let nxt = !next in
      sset_clear nxt;
      if !pos < len then begin
        let c = String.unsafe_get s !pos in
        for i = 0 to cur.n - 1 do
          let pc = Array.unsafe_get cur.dense i in
          match Array.unsafe_get prog pc with
          | ILit l -> if l = c then add_thread prog nxt (!pos + 1) len (pc + 1)
          | IChar None -> add_thread prog nxt (!pos + 1) len (pc + 1)
          | IChar (Some bm) ->
              if Bytes.unsafe_get bm (Char.code c) <> '\000' then
                add_thread prog nxt (!pos + 1) len (pc + 1)
          | _ -> ()
        done;
        (* unanchored search: also start a fresh attempt at pos+1 *)
        add_thread prog nxt (!pos + 1) len 0
      end;
      current := nxt;
      next := cur;
      incr pos
    end
  done;
  !result
