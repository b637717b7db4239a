(** Typed diff between two model snapshots: which naming conventions
    were added, dropped, or changed, how the learned-geohint overlay
    churned, and how per-suffix support moved — the drift signal the
    Longitudinal IP Geolocation study shows models must track. Produced
    by [hoiho diff-model] and by the relearn paths to summarize what an
    event stream actually changed. *)

type status = Added | Dropped | Changed

type entry_change = {
  hint : string;
  hint_type : Plan.hint_type;
  before : Learned.entry option;  (** [None] when the hint is new *)
  after : Learned.entry option;  (** [None] when the hint was dropped *)
}
(** One learned-overlay entry, keyed by (hint_type, hint), that differs
    between the two snapshots. Identical entries are not reported. *)

type suffix_diff = {
  suffix : string;
  status : status;
  classification_before : Ncsel.classification option;
  classification_after : Ncsel.classification option;
  cands_before : string list;  (** regex sources, application order *)
  cands_after : string list;
  cands_changed : bool;
      (** the (source, plan) candidate lists differ; always [false] for
          [Added]/[Dropped] (there is nothing to compare against) *)
  hints : entry_change list;  (** in (hint_type, hint) order *)
  support_before : int;  (** sum of TP counts across learned entries *)
  support_after : int;
}

type t = {
  suffixes_before : int;
  suffixes_after : int;
  unchanged : int;
  dictionary_changed : bool;
  diffs : suffix_diff list;  (** sorted by suffix *)
}

val diff : Learned_io.t -> Learned_io.t -> t
(** [diff before after]. A suffix counts as changed when its
    classification, its (source, plan) candidates, or its learned
    entries (compared in stable sorted order) differ; metrics blocks
    are ignored — two learns of the same corpus diff empty. *)

val encode : t -> string
(** Stable compact JSON rendering (suffixes and hints in sorted order;
    cities identified by {!Hoiho_geodb.City.key}): equal diffs encode
    to equal bytes. *)

val render_text : t -> string
(** Human view, one suffix per stanza: a header line with totals, then
    [+]/[-]/[~] lines per added/dropped/changed suffix with support and
    hint-churn detail. Ends with a newline. Deterministic — the golden
    drift corpus pins this output. *)
