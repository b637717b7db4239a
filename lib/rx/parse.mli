(** Parser for the concrete regex dialect of {!Ast}.

    Supported syntax: literals; [\\] escapes of punctuation ([\\.],
    [\\-], [\\\\], ...) and [\\d], [\\n], [\\t]; [.] ; [\[...\]] classes
    with ranges, negation, and [\\d]; [( )] capture groups; anchors
    [^] and [$]; quantifiers [?], [*], [+], [{n}], [{n,}], [{n,m}] with
    counts up to {!max_count}, and possessive [*+] and [++], each
    after one character, class or [.], at most {!max_reps} of them
    per pattern.

    Anything else is an [Error], never a guess: [|], [(?:...)], a
    quantifier after [)] or an anchor, an escaped letter or digit
    other than [\\d], [\\n], [\\t] (so [\\w] or [\\b] is refused, not
    read as the letter), a range ending in a class ([\[a-\\d\]]) and a
    reversed range ([\[z-a\]]). *)

val max_count : int
(** 1024, the longest subject {!Engine} matches
    ([Engine.max_subject_len]): a repetition consumes one subject byte
    per count, so a larger count could never be met, and [{n}],
    [{n,}] and [{n,m}] with a count above it are an [Error]. *)

val max_reps : int
(** 256 quantifiers per pattern (the learner emits at most 7); one
    more is an [Error]. {!Engine}'s failure memo holds one int per
    (quantifier, subject position), so this bounds it at 256 × 1025. *)

val parse : string -> (Ast.t, string) result
(** [parse s] returns the AST, or [Error msg] describing the first
    syntax error. *)

val parse_exn : string -> Ast.t
(** Like {!parse} but raises [Invalid_argument] on error. *)
