(** Dictionary access for the learning method: lookup of hint strings by
    type, and country/state code matching with the GB≡UK equivalence. *)

val lookup :
  Hoiho_geodb.Db.t -> Plan.hint_type -> string -> Hoiho_geodb.City.t list
(** Candidate locations for a hint string under a given interpretation.
    CLLI lookups accept strings of 6-11 letters (only the 6-letter
    prefix is consulted). Facility lookups match street-address or
    facility-name tokens. *)

val cc_matches : Hoiho_geodb.City.t -> string -> bool
(** Does the token denote the city's country ("uk" matches a "gb" city)? *)

val state_matches : Hoiho_geodb.City.t -> string -> bool

val region_matches : Hoiho_geodb.City.t -> string -> bool
(** Either of the above. *)

val in_region :
  cc:string option -> state:string option -> Hoiho_geodb.City.t -> bool
(** Does the city match the extracted country code and state code,
    where each is given? With neither given, every city does. *)
