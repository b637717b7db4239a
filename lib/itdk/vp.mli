(** A vantage point (VP): a measurement host with a known location, in
    the style of CAIDA Ark monitors (§5.1.4). VP names follow Ark's
    convention of IATA code + country, e.g. "sjc-us". *)

type t = {
  id : int;
  name : string;
  city_key : string;  (** {!Hoiho_geodb.City.key} of the hosting city *)
  coord : Hoiho_geo.Coord.t;
}

val make : id:int -> name:string -> city_key:string -> coord:Hoiho_geo.Coord.t -> t
