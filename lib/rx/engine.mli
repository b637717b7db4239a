(** Backtracking matcher with capture groups.

    {!compile} links the AST into one instruction program: each
    instruction holds its continuation, so matching is one recursive
    interpreter over pure data, and a compiled regex stays an acyclic
    value that [=] can compare. A repetition of a single-character
    atom (literal, class, [.]) is matched by position arithmetic.
    Every other repetition — over a group, an alternation, or anything
    containing another repetition — runs its body once per iteration
    on a stack of iteration frames (iterations done, start position),
    greedy: one more iteration first, the continuation after.

    An iteration that matches nothing counts toward the repetition's
    minimum; once the minimum is met it ends the repetition, keeping
    that iteration's captures. This is the rule Perl and Python's [re]
    follow: [^(a?){2}b$] matches ["ab"], and [^(a|)+b$] on ["aab"]
    captures [""] in its group.

    Possessive quantifiers are honored for single-character atoms,
    which is the only way the Hoiho generator emits them; a possessive
    quantifier over a wider atom — including a capture group, e.g.
    [([a-z])++] — degrades to greedy, so any group it contains still
    records the text of its last iteration.

    Every compiled pattern carries a {!Prefilter.t}: [exec] first scans
    the input for the pattern's required literal substring and bails —
    or seeds the start offset — before entering the backtracker. The
    prefiltered search is observationally identical to the exhaustive
    one ({!exec_unfiltered} exists to check exactly that). *)

type t
(** A compiled regex. *)

val compile : Ast.t -> t

val compile_string : string -> (t, string) result
(** Parse then compile. *)

val compile_exn : string -> t
(** Like {!compile_string} but raises [Invalid_argument]. *)

val ast : t -> Ast.t
(** The AST this regex was compiled from. *)

val source : t -> string
(** Concrete syntax (via {!Ast.to_string}). *)

val group_count : t -> int

val max_subject_len : int
(** Subjects longer than this (1024 bytes — 4× the DNS name limit) are
    rejected by {!exec}, {!exec_unfiltered} and {!matches} without
    entering the backtracker, counted under [rx.oversized_inputs]. *)

val exec : t -> string -> string option array option
(** [exec re s] attempts a match. Anchors [^]/[$] bind to the string
    boundaries; an unanchored pattern may match anywhere. On success the
    array holds the text of each capture group in left-to-right order
    (index 0 is group 1); a group inside an unused alternation branch is
    [None]. Never raises: any byte sequence is a valid subject, and a
    subject over {!max_subject_len} is simply no match. *)

val exec_unfiltered : t -> string -> string option array option
(** {!exec} with the literal prefilter disabled: the backtracker is
    retried at every start offset. For differential testing and
    benchmarking; agrees with {!exec} on every input. *)

val matches : t -> string -> bool
(** [exec t s <> None] without materializing capture strings. *)

val prefilter : t -> Prefilter.t
(** The literal prefilter computed at compile time. *)

val prefilter_stats : unit -> int * int
(** [(calls, skips)] accumulated process-wide across all patterns:
    total prefiltered searches, and searches rejected by the literal
    scan alone (no backtracking attempted). Thread-safe. Backed by the
    {!Hoiho_obs.Obs} registry counters [rx.exec_calls] and
    [rx.prefilter_skips] (the registry also tracks
    [rx.backtrack_attempts]); this accessor remains for convenience. *)
