(** Parser for the concrete regex dialect.

    Supported syntax: literals; [\\] escapes ([\\.], [\\d], [\\\\], ...);
    [.] ; [\[...\]] classes with ranges, negation, and [\\d]; [( )] capture
    groups; [(?: )] non-capturing groups; [|] alternation; anchors [^] and
    [$]; quantifiers [?], [*], [+], [{n}], [{n,}], [{n,m}] with counts
    up to {!max_count}; possessive [*+] and [++]. *)

val max_count : int
(** 1024, the longest subject {!Engine} matches
    ([Engine.max_subject_len]): a larger count could only be met by
    empty iterations, each one a stack frame of the matcher, so
    [{n}], [{n,}] and [{n,m}] with a count above it are an [Error]. *)

val parse : string -> (Ast.t, string) result
(** [parse s] returns the AST, or [Error msg] describing the first
    syntax error. *)

val parse_exn : string -> Ast.t
(** Like {!parse} but raises [Invalid_argument] on error. *)
