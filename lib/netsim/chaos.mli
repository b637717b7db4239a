(** Seeded fault injection over a dataset and its dictionary.

    The generator produces clean data by construction; real ITDK input
    is not clean (§2, §6: stale, malformed, and misleading hostnames).
    [apply] re-introduces the pathologies of real snapshots —
    deterministically from one seed — so graceful degradation can be
    tested like any other behavior. See DESIGN.md §8 for the failure
    model and the degraded-result contract the pipeline upholds under
    injection. *)

type cls =
  | Hostname_mangle
      (** truncation, control and high-bit bytes, ".." empty labels,
          255-char labels, embedded whitespace *)
  | Dict_dropout  (** reference dictionary entries removed *)
  | Rtt_loss  (** RTT samples dropped (ping and traceroute) *)
  | Rtt_outlier
      (** queueing blow-ups (×10–100) and spoofed too-fast (<0.5 ms)
          responses; both violate the generator's soundness invariant *)
  | Rtt_negative  (** negated RTTs (broken clock arithmetic upstream) *)
  | Alias_error
      (** false aliases (foreign hostname attached to a router) and
          dangling VP ids (surface as {!Hoiho.Consist.Unknown_vp}) *)

val all_classes : cls list

val class_name : cls -> string
(** Stable snake_case name, e.g. for CLI/report output. *)

type config = { seed : int; level : int; classes : cls list }

val config : ?level:int -> ?classes:cls list -> int -> config
(** [config seed] enables {!all_classes} at [level] 1 (≈8% per-item
    injection probability; each level adds 8 points, capped at 90%).
    [level] is clamped to ≥ 1. *)

val apply :
  config ->
  Hoiho_geodb.Db.t ->
  Hoiho_itdk.Dataset.t ->
  Hoiho_geodb.Db.t * Hoiho_itdk.Dataset.t
(** Mutated copies of the dictionary and dataset (inputs are not
    modified). Deterministic: the same config yields byte-identical
    outputs and identical [chaos.*] counter increments; each class
    draws from its own split PRNG stream, so enabling or disabling one
    class never changes another's injections. VPs and links are left
    intact — adversity targets observations, not the measurement
    platform's own inventory. *)
