(** Operator naming conventions for the synthetic topology.

    A convention is a hostname template: a dot-separated list of labels,
    each label a dash-separated list of tokens. The geohint occupies one
    token; surrounding tokens carry interface names, roles, constants,
    or junk — reproducing the hostname shapes of figures 1, 6, 12. *)

type hint_kind = Iata | Clli | Locode | CityName | FacilityAddr

type tok =
  | Iface  (** interface name with embedded digits, e.g. "xe-0-1-0" *)
  | Role of string  (** role string + one digit, e.g. "cr2" *)
  | RoleBare of string  (** role string without digits *)
  | RoleOf of string list  (** one of several role strings + digit *)
  | RoleBareOf of string list  (** one of several fixed strings *)
  | Geo  (** the geohint code *)
  | GeoDig  (** geohint code + digits, e.g. "lhr15" *)
  | GeoCompound
      (** undelimited city-id + digit + state compound, e.g. "chi2ca"
          (figure 12a's AT&T style — not parseable by the method, §7) *)
  | GeoSplitClli  (** 6-letter CLLI prefix split "asbn-va" over two tokens *)
  | Cc  (** country code of the router's city *)
  | State  (** state code *)
  | Const of string
  | Junk  (** random customer/feature token (may collide with IATA) *)
  | Num  (** pure digits *)
  | AsnTok  (** the router operator's AS number, e.g. "as6939" *)

type template = tok list list
(** Outer list: dot-separated labels; inner: dash-joined tokens. *)

type t = {
  hint_kind : hint_kind option;  (** [None]: no geohints embedded *)
  templates : template list;  (** >1 when the operator mixes formats *)
  uses_cc : bool;
  uses_state : bool;
}

val role_pool : string array
(** Role strings operators use ("cr", "gw", "bb", ...). *)

val render :
  Hoiho_util.Prng.t ->
  template ->
  geo:string ->
  cc:string ->
  state:string option ->
  ?asn:int ->
  string ->
  string
(** [render rng template ~geo ~cc ~state ?asn suffix] renders one
    hostname: instantiate digits/junk, substitute the geohint, cc/state
    codes and ASN, then append the suffix. *)

val render_router :
  Hoiho_util.Prng.t ->
  template ->
  geo:string ->
  cc:string ->
  state:string option ->
  ?asn:int ->
  count:int ->
  string ->
  string list
(** Render [count] hostnames for the interfaces of one router: the
    interface-specific tokens (interface names, junk, digits) vary per
    hostname while the rest — the *router name* of Luckie et al. 2019 —
    stays fixed ("100ge1-2.core1.ash1" / "100ge10-1.core1.ash1"). *)

val geo_label_kinds : template -> bool * bool * bool
(** (has geo token, has cc token, has state token). *)
