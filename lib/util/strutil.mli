(** String and hostname-token helpers shared across the repository. *)

val is_alpha : char -> bool
(** Lowercase or uppercase ASCII letter. *)

val is_digit : char -> bool

val is_alnum : char -> bool

val lowercase : string -> string
(** ASCII lowercasing. *)

val normalize_hostname : string -> string
(** Canonical form for hostname comparison and matching: ASCII
    lowercase, every whitespace character removed (operator typos and
    copy-paste artifacts embed spaces and tabs mid-name), and one
    trailing dot — the DNS root label — stripped. Idempotent. *)

val has_empty_dns_label : string -> bool
(** True when the string is empty, starts or ends with a dot, or
    contains consecutive dots — i.e. splitting on ['.'] would yield an
    empty label. Malformed names like ["a..b.net"] must be skipped, not
    force-fit, by label-positional methods (DRoP-style). *)

val split_labels : string -> string list
(** Split a hostname into dot-separated labels, dropping empties. *)

val split_punct : string -> string list
(** Split a string on any non-alphanumeric character, dropping empties.
    ["xe-0-0.ash1"] becomes [["xe"; "0"; "0"; "ash1"]]. *)

val alpha_runs : string -> string list
(** Maximal runs of alphabetic characters. ["ash1x"] gives [["ash"; "x"]]. *)

val strip_trailing_digits : string -> string
(** ["lhr15"] becomes ["lhr"]; a purely numeric string becomes [""]. *)

val strip_leading_digits : string -> string

val has_suffix : suffix:string -> string -> bool

val has_prefix : prefix:string -> string -> bool

val drop_suffix : suffix:string -> string -> string option
(** [drop_suffix ~suffix s] removes [suffix] (and a preceding dot if
    present) from the end of [s]; [None] if [s] does not end with it. *)

val is_subsequence : string -> string -> bool
(** [is_subsequence small big]: all chars of [small] occur in [big] in
    order. *)

val longest_common_run : string -> string -> int
(** Length of the longest substring common to both arguments. *)

val join : string -> string list -> string
(** [join sep parts] is [String.concat sep parts]. *)

val chunks_of_classes : string -> [ `Alpha of string | `Digit of string | `Other of string ] list
(** Decompose into maximal runs of letters, digits, and other characters,
    preserving order: ["ash1-b"] gives
    [[`Alpha "ash"; `Digit "1"; `Other "-"; `Alpha "b"]]. *)
