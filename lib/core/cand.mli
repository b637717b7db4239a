(** Candidate regexes under construction.

    The generation phases manipulate regexes as component lists rather
    than strings: literals, fixed pattern nodes, capture groups
    annotated with plan elements, and *fillers* — unconstrained holes
    ([^\.]+, .+, [^-]+) that phase 3 later specializes using the strings
    they actually matched. *)

type filler =
  | Flabel  (** [^\.]+ — one whole dot-separated label *)
  | Flead  (** .+ — collapses a run of leading labels (at most one) *)
  | Fdash  (** [^-]+ — a dash-delimited field *)

type comp =
  | Lit of string  (** literal text (escaped on compile) *)
  | Node of Hoiho_rx.Ast.node  (** fixed pattern piece, e.g. \d+ *)
  | Fill of filler
  | Cap of Plan.elem * Hoiho_rx.Ast.node list  (** capture group *)

type t = {
  body : comp list;  (** pattern for the hostname prefix *)
  suffix : string;  (** the literal domain suffix *)
  plan : Plan.t;
  regex : Hoiho_rx.Engine.t;  (** compiled pattern including anchors/suffix *)
  source : string;  (** concrete syntax, for display and deduplication *)
}

val build : suffix:string -> comp list -> t
(** Compile components into an anchored regex ending in the literal
    suffix; derives the plan from the [Cap] components in order. *)

val source_of : suffix:string -> comp list -> string
(** The concrete syntax [build] would give this body, without
    compiling it. *)

val build_many : ?jobs:int -> suffix:string -> comp list list -> t list
(** Batched compilation: deduplicates bodies on their rendered source
    (keeping first occurrences, like {!dedup}) before compiling, and
    fans the distinct compiles out over the shared pool of [jobs]
    lanes. Equivalent to [dedup (List.map (build ~suffix) bodies)]
    at a fraction of the compile work. *)

val analysis_regex :
  t -> Hoiho_rx.Engine.t * [ `Fill of int | `Plan of Plan.elem ] list
(** A variant where every filler is additionally captured, for phase 3:
    returns the compiled regex and, per capture group in order, whether
    it is a filler (identified by component index) or a plan element. *)

val equal_structure : t -> t -> bool
(** Equality on [source] (same concrete pattern and suffix). *)

val dedup : t list -> t list
(** Remove structural duplicates, keeping first occurrences. *)
