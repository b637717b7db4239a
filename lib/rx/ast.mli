(** Abstract syntax for the regex dialect the Hoiho learner emits and
    the paper's published regexes use (figures 7 and 13).

    The dialect covers: anchors [^]/[$], literals, [.], character classes
    (with ranges, negation, and [\d] inside classes), capture groups,
    and the quantifiers [?], [*], [+], [{n}], [{n,m}], [{n,}], plus
    possessive variants [*+] and [++] that never give back characters
    on backtracking. A quantifier repeats one character ({!atom}), never
    a group, and there is no alternation: the type admits nothing else,
    which is what lets {!Engine} bound every match. *)

type greed =
  | Greedy  (** backtracking quantifier *)
  | Possessive  (** matches maximally and never backtracks *)

type cls = {
  neg : bool;  (** true for [\[^...\]] *)
  ranges : (char * char) list;  (** inclusive ranges; singletons as [(c, c)] *)
}

(** What a quantifier may repeat: one character. The constructors
    share their names with {!node}'s; the expected type picks one. *)
type atom = Lit of char | Cls of cls | Any

type node =
  | Lit of char
  | Cls of cls
  | Any  (** [.] — any character *)
  | Bol  (** [^] — start of string *)
  | Eol  (** [$] — end of string *)
  | Rep of atom * int * int option * greed
      (** [Rep (a, min, max, g)]; [max = None] means unbounded *)
  | Grp of t  (** capture group; numbered left to right from 1 *)

and t = node list
(** A regex is a sequence of nodes. *)

val node_of_atom : atom -> node
(** The atom standing alone, unrepeated. *)

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
