(** A second, independent matcher: Thompson NFA simulation (Pike-VM
    style, without captures), over the {!Hoiho_rx.Ast} dialect.

    Exists only for differential testing of {!Hoiho_rx.Engine}, which
    is why it lives with the tests: no library, binary or benchmark
    calls it. The two implementations share nothing beyond the AST, so
    agreement on random patterns and inputs is strong evidence both are
    right.

    Matching is boolean and unanchored (like [Engine.exec] on a pattern
    without [^]), linear in [length input * program size] — no
    backtracking blowup.

    Possessive quantifiers cannot be expressed in a plain NFA (they
    change the language, not just the strategy); {!compile} rejects
    patterns containing them. *)

type t

val supported : Hoiho_rx.Ast.t -> bool
(** False when the pattern contains a possessive quantifier. *)

val compile : Hoiho_rx.Ast.t -> t
(** Raises [Invalid_argument] on unsupported patterns. *)

val matches : t -> string -> bool
(** Unanchored: true when any substring matches (respecting any [^]/[$]
    anchors in the pattern). *)

val program_size : t -> int
(** Number of compiled instructions (for tests). *)
