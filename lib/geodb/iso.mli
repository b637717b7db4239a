(** ISO-3166 country codes and first-level subdivisions (states and
    provinces), as used for the state/country annotations that operators
    attach to geohints (e.g. the "uk" in "lhr15.uk" or the "va" in
    "ashbva"). *)

val country_name : string -> string option
(** [country_name "us"] is [Some "united states"]. Codes are lowercase
    alpha-2. Recognizes the common non-ISO alias "uk" for "gb". *)

val is_country : string -> bool

val country_equiv : string -> string -> bool
(** True when the two codes denote the same country ("uk" ≡ "gb"). *)

val state_name : cc:string -> string -> string option
(** [state_name ~cc:"us" "va"] is [Some "virginia"]. Covers US states,
    Canadian provinces and Australian states/territories. *)

val is_any_state : string -> bool
(** True if the code is a subdivision of any covered country. *)
