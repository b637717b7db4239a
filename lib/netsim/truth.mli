(** Ground-truth bundle retained by the generator.

    Holds what produced a synthetic dataset, so validation can replay
    the paper's §6 protocol: the operator population (which suffixes
    embed geohints, each operator's codebook (code → city), and which
    codes are custom), and the answer key of every router, by router id.
    The learning pipeline never sees this: {!Hoiho_itdk.Router.t} holds
    only what was measured, and no library the pipeline, the server or
    the baselines build on depends on this one. A saved corpus carries
    no truth, so validation regenerates its corpus from a preset. *)

type router = {
  city_key : string;  (** where the router actually is *)
  coord : Hoiho_geo.Coord.t;
  intended_hint : string option;
      (** the geohint string the operator meant to embed, if any *)
  stale : bool;  (** a hostname kept from a previous deployment (§4.3) *)
  hostname_hints : (string * string option) list;
      (** per hostname: the geohint code it embeds, [None] when the
          hostname carries no geohint *)
}
(** One router's answer key. *)

type t
(** Immutable once made: {!Evolve.epoch} returns a new one. *)

val make : db:Hoiho_geodb.Db.t -> Oper.t list -> (int * router) list -> t
(** [make ~db ops routers] with [routers] the answer key of each router
    id. *)

val ops : t -> Oper.t list

val db : t -> Hoiho_geodb.Db.t
(** The dictionary the generator drew places from. When the generator
    expanded the world with synthetic towns, the learning pipeline must
    consult this dictionary (they are ordinary GeoNames-style places). *)

val find : t -> string -> Oper.t option
(** Lookup by suffix. *)

val router : t -> int -> router option
(** The answer key of a router, by id; [None] for an id the generator
    did not make. *)

val code_city : t -> suffix:string -> string -> string option
(** [code_city t ~suffix code] is the city key the operator of [suffix]
    means by [code], if any. *)

val is_custom : t -> suffix:string -> string -> bool

val geo_suffixes : t -> string list
(** Suffixes whose operator embeds geohints (any geo kind). *)
