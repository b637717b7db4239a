type t = {
  id : int;
  name : string;
  city_key : string;
  coord : Hoiho_geo.Coord.t;
}

let make ~id ~name ~city_key ~coord = { id; name; city_key; coord }
