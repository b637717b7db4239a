(** Public-suffix handling (§5.1.2).

    The method groups hostnames by the domain suffix under which an
    operator registers names — the effective top-level domain plus one
    label ("zayo.com", "ccnw.net.au"). This module embeds the subset of
    the Mozilla Public Suffix List needed for realistic router hostnames
    and extracts the registration suffix of a hostname. *)

val is_public_suffix : string -> bool

val registered_suffix : string -> string option
(** [registered_suffix "core1.ash1.he.net"] is [Some "he.net"]. [None]
    when the hostname is itself a public suffix or has no recognized
    public suffix. Matching picks the longest public suffix, so
    ["r1.ccnw.net.au"] yields [Some "ccnw.net.au"]. The input is
    normalized first ({!Hoiho_util.Strutil.normalize_hostname}): case,
    a trailing root dot, and embedded whitespace do not change the
    answer. *)

val prefix_of : string -> string option
(** The hostname portion before the registered suffix:
    ["core1.ash1" ] for ["core1.ash1.he.net"]. [None] when there is no
    prefix or no recognized suffix. *)
