(** Model snapshots: the learn-once / apply-many split.

    The pipeline's end product — per-suffix naming conventions (regex
    sources + decode plans), the learned geohint overlay, and the
    dictionary they were learned against — is serialized to a compact,
    versioned, self-describing JSON document so that geolocation can be
    served long after (and far away from) the training run, without
    re-learning. {!Hoiho_serve.Serve} applies a decoded snapshot at
    scale; [hoiho save-model] / [hoiho apply] are the CLI entry points.

    Decoding is strict and total: any malformed input — truncated file,
    unknown format version, wrong field type, uncompilable regex —
    yields a typed {!error}, never an exception. *)

(** The per-suffix records are {!Apply}'s, re-exported so their field
    labels work through this module too. *)

type cand = Apply.cand = {
  source : string;
  plan : Plan.t;
  regex : Hoiho_rx.Engine.t;
}

type suffix_model = Apply.suffix_model = {
  suffix : string;
  classification : Ncsel.classification;
  cands : cand list;
  learned : Learned.t;
  stats : Confidence.suffix_stats;
}

type dictionary =
  | Default  (** the embedded world dataset, {!Hoiho_geodb.Db.default} *)
  | Embedded of Hoiho_geodb.City.t list
      (** full city records carried inside the snapshot — used when the
          model was learned against a non-default dictionary (synthetic
          truth databases, chaos-mutated dictionaries), so apply
          resolves hints exactly as learning did *)

type t = {
  dictionary : dictionary;
  suffixes : suffix_model list;
      (** sorted by suffix name ({!of_pipeline}, and
          {!Delta.relearn_model} in the same order), so equal models
          list them alike whatever order the learn grouped them in.
          Decoding keeps the order a file holds. *)
  calibration : float array option;
      (** the model's expected confidence-decile profile
          ({!Confidence.expected_profile} of the suffixes' stats),
          stored at save-model time so the serving daemon can compare
          live served-confidence distributions against it (format v3,
          DESIGN.md §14); [None] for pre-v3 snapshots — drift
          monitoring disabled *)
  metrics : Hoiho_util.Json.t;
      (** observability snapshot of the learn run, carried verbatim for
          provenance (an empty object when unavailable) *)
}

val format_version : int
(** Current snapshot format version (3: v2 plus the expected
    [calibration] profile; 2: v1 plus the per-suffix confidence
    [stats] block). Encoders stamp it; decoders accept
    {!oldest_readable_version} through this and reject anything else
    with {!Unknown_version} — version evolution policy is in
    DESIGN.md §9. *)

val oldest_readable_version : int
(** Oldest version {!decode} still reads (1). v1 suffix models decode
    with {!Confidence.no_stats}; pre-v3 snapshots decode with
    [calibration = None]. *)

type error =
  | Syntax of string
      (** not a JSON document (truncation, garbage), or a file that
          cannot be read or exceeds {!max_file_bytes} *)
  | Unknown_version of int
  | Schema of Hoiho_util.Json.error
      (** structurally valid JSON that does not satisfy the schema, at
          a path such as [$.suffixes[3].cands[0].source] *)

val error_to_string : error -> string

val classification_wire : Ncsel.classification -> string
(** "good" / "promising" / "poor" — the snapshot wire names, shared
    with {!Model_diff} so both artifacts speak one vocabulary. *)

val sorted_entries : Learned.t -> Learned.entry list
(** Entries in (hint_type, hint) order — the stable order {!encode}
    emits, exposed for deterministic diffing. *)

val of_pipeline : Pipeline.t -> t
(** Extract the servable model of a finished run: every suffix that
    selected an NC ({!Pipeline.suffix_model_of_result} of its
    [results], so a record-updated [results] is honored), sorted by
    suffix name, the learned overlays, the dictionary (by reference
    when it is physically {!Hoiho_geodb.Db.default}, embedded
    otherwise), and the run's metrics snapshot. *)

val db : t -> Hoiho_geodb.Db.t
(** Resolve {!dictionary} to a database. Rebuilding an [Embedded]
    dictionary is deterministic ({!Hoiho_geodb.Db.of_cities} on the
    stored list), so lookups resolve identically to the training run.
    Cost is one table build — resolve once, not per hostname. *)

val encode : t -> string
(** Stable JSON: equal models encode to equal bytes (learned entries
    are emitted in sorted order; Hashtbl iteration order never leaks). *)

val decode : string -> (t, error) result
(** Strict, total decode. Two suffix models sharing a suffix are a
    [Schema] error at [$.suffixes[i].suffix], the second occurrence —
    the same check {!Apply.index} applies. *)

val save : string -> t -> unit
(** [save path model] writes [encode model] to [path] atomically: to a
    pid-unique tmp sibling, then renamed over [path]
    ({!Hoiho_obs.Obs.write_file_atomic}). A concurrent {!load} — a
    daemon reload racing [save-model] — sees the old snapshot or the
    new one, never a truncated file. *)

val max_file_bytes : int
(** 64 MiB: {!load} refuses a larger file before reading it, with a
    [Syntax] error naming the limit. The paper preset's snapshot at
    scale 0.05 is 166,824 bytes with the default dictionary. *)

val load : string -> (t, error) result
(** [decode] of the file contents; unreadable files, and files over
    {!max_file_bytes}, are [Syntax]. *)

val equal : t -> t -> bool
(** Semantic equality: same dictionary, same suffixes with the same
    (source, plan) candidates and learned entries, equal metrics.
    Compiled regexes are compared by source. *)
