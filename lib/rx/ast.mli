(** Abstract syntax for the regex dialect used by Hoiho-generated
    naming-convention regexes (figures 7 and 13 of the paper).

    The dialect covers: anchors [^]/[$], literals, [.], character classes
    (with ranges, negation, and [\d] inside classes), capture groups,
    alternation, and the quantifiers [?], [*], [+], [{n}], [{n,m}],
    [{n,}], plus possessive variants [*+] and [++] that never give back
    characters on backtracking. *)

type greed =
  | Greedy  (** backtracking quantifier *)
  | Possessive  (** matches maximally and never backtracks *)

type cls = {
  neg : bool;  (** true for [\[^...\]] *)
  ranges : (char * char) list;  (** inclusive ranges; singletons as [(c, c)] *)
}

type node =
  | Lit of char
  | Cls of cls
  | Any  (** [.] — any character *)
  | Bol  (** [^] — start of string *)
  | Eol  (** [$] — end of string *)
  | Rep of node * int * int option * greed
      (** [Rep (n, min, max, g)]; [max = None] means unbounded *)
  | Grp of t  (** capture group; numbered left to right from 1 *)
  | Alt of t list  (** alternation of sequences *)

and t = node list
(** A regex is a sequence of nodes. *)

val cls_of_string : string -> cls
(** [cls_of_string "a-z\\d"] builds a class from the body syntax used
    between brackets. Leading [^] negates. *)

val cls_mem : cls -> char -> bool
(** Membership test honoring negation. *)

val cls_bitmap : cls -> Bytes.t
(** A 256-byte membership table ([\000] = out, [\001] = in): one
    bounds-free byte read per test on the matching hot paths, instead
    of a range-list walk. *)

val digit : cls
(** The class [\d]. *)

val lower : cls
(** The class [a-z]. *)

val not_char : char -> cls
(** [not_char c] is [\[^c\]]. *)

val count_groups : t -> int
(** Number of capture groups in left-to-right order. *)

val to_string : t -> string
(** Render back to the concrete dialect syntax; parseable by {!Parse}. *)

val equal : t -> t -> bool
(** Structural equality. *)
