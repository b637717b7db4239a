(** Backtracking matcher with capture groups, bounded in time.

    {!compile} links the AST into one instruction program: each
    instruction holds its continuation, so matching is one recursive
    interpreter over pure data, and a compiled regex stays an acyclic
    value that [=] can compare. The {!Ast} dialect repeats only single
    characters and has no alternation, so the program is a chain and a
    repetition is matched by position arithmetic: a greedy one eats
    maximally and retreats one character at a time, a possessive one
    eats maximally and never gives back.

    With no iteration state, whether the match succeeds from a given
    (instruction, position) depends on nothing else, so each search
    records the continuation positions that failed in a per-domain
    memo, indexed by (repetition, position), and never tries one twice
    (the idea of RE2's bit-state backtracker).

    {b Time bound.} For a subject of [n] bytes (at most
    {!max_subject_len}) and a pattern of [m] characters, one search
    enters each (instruction, position) pair at most once, so it runs
    at most [m × (n + 1)] instruction steps. Repetitions add character
    tests as they eat: an unbounded greedy one tests its minimum, plus
    positions no earlier entry has tested (at most [n + 1] of those per
    search); a bounded or possessive one retests up to [min(max, n)]
    characters per entry. So a search costs [O(m × n²)] at worst, and
    [O(m × n)] for the learner's shapes ([.+], [\d+], [[^.]+],
    [[a-z]{3}]); never exponential. The memo takes
    [repetitions × (n + 1)] ints on each domain that searches.

    {b One search.} A pattern anchored with [^] is tried at position 0
    only; any other pattern at every start offset, under the same memo,
    since whether a state succeeds does not depend on where the match
    began. So the bound above covers the whole search, not one start.
    Hoiho's learned regexes are anchored at both ends on their suffix,
    and run only on hostnames of that suffix. *)

type t
(** A compiled regex. *)

val compile : Ast.t -> t

val compile_string : string -> (t, string) result
(** Parse then compile. *)

val compile_exn : string -> t
(** Like {!compile_string} but raises [Invalid_argument]. *)

val source : t -> string
(** Concrete syntax (via {!Ast.to_string}). *)

val group_count : t -> int

val max_subject_len : int
(** Subjects longer than this (1024 bytes — 4× the DNS name limit) are
    rejected by {!exec}, {!exec_memo_free} and {!matches} without
    entering the backtracker, counted under [rx.oversized_inputs]. *)

val exec : t -> string -> string option array option
(** [exec re s] attempts a match. Anchors [^]/[$] bind to the string
    boundaries; an unanchored pattern may match anywhere. On success the
    array holds the text of each capture group in left-to-right order
    (index 0 is group 1); every group takes part in every match, so
    each slot is [Some]. Never raises: any byte sequence is a valid
    subject, and a subject over {!max_subject_len} is simply no
    match. *)

val exec_memo_free : t -> string -> string option array option
(** {!exec} with no failure memo: every path is tried, so the time
    bound above does not hold. The reference the memoized search is
    checked against in differential tests; agrees with {!exec} on
    every input. *)

val matches : t -> string -> bool
(** [exec t s <> None] without materializing capture strings. *)

val prefilter_stats : unit -> int * int
(** [(calls, 0)]: the process-wide [rx.exec_calls] count of searches,
    beside a skip count that is always 0. The literal prefilter that
    once skipped searches is gone; this pair stays only because the
    frozen benchmark harness reads it. *)
