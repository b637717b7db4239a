(** Literal prefiltering for the backtracking engine.

    [analyze] extracts from a pattern AST several *necessary*
    conditions cheap enough to check with plain byte scans: a
    [required] literal appearing verbatim in every match (when it sits
    at a statically known distance from the match start, [offset], its
    occurrences enumerate the only start offsets the backtracker needs
    to try); further [extras] literals from the other mandatory runs;
    a [tail] literal pinned at a fixed distance from the subject's end
    for [$]-terminated patterns; and a [needs_digit] flag when some
    mandatory atom matches only digits.
    {!Engine.exec} checks these before entering the backtracker and
    rejects most non-matching inputs outright.

    All conditions computed here are necessary, never sufficient, so a
    prefiltered search accepts exactly the same strings (with the same
    captures) as an exhaustive one. Possessive quantifiers are sound:
    they match a subset of their greedy form. *)

type t = {
  anchored : bool;  (** pattern begins with [^] *)
  required : string;  (** [""] when no literal is required *)
  offset : int option;
      (** distance from match start to [required], when every atom
          before the literal has a statically fixed width *)
  extras : string list;
      (** other literals every match must contain somewhere (at most
          two, longest first, none implied by [required] or [tail]) *)
  tail : (string * int) option;
      (** [(lit, dist)]: [lit] ends exactly [dist] bytes before the
          subject's end; only for patterns ending in [$] *)
  needs_digit : bool;
      (** some mandatory atom matches only ASCII digits *)
}

val analyze : Ast.t -> t

val find : needle:string -> string -> int -> int
(** [find ~needle hay start] is the index of the first occurrence of
    [needle] at or after [start], or [-1]. A manual unsafe-access scan;
    [needle] must be non-empty for a meaningful result. *)

val matches_at : needle:string -> string -> int -> bool
(** Does [needle] occur at exactly this index? *)

val contains : needle:string -> string -> bool
