module Db = Hoiho_geodb.Db
module City = Hoiho_geodb.City
module Iso = Hoiho_geodb.Iso

let lookup db (ht : Plan.hint_type) s =
  match ht with
  | Plan.Iata -> if String.length s = 3 then Db.lookup_iata db s else []
  | Plan.Icao -> if String.length s = 4 then Db.lookup_icao db s else []
  | Plan.Locode -> if String.length s = 5 then Db.lookup_locode db s else []
  | Plan.Clli ->
      let n = String.length s in
      if n >= 6 && n <= 11 then Db.lookup_clli db (String.sub s 0 6) else []
  | Plan.CityName -> Db.lookup_city_name db s
  | Plan.FacilityAddr -> List.map snd (Db.lookup_facility db s)

let cc_matches (city : City.t) token = Iso.country_equiv city.City.cc token

let state_matches (city : City.t) token =
  match city.City.state with
  | Some st -> String.lowercase_ascii token = st
  | None -> false

let region_matches city token = cc_matches city token || state_matches city token

let in_region ~cc ~state city =
  (match cc with Some code -> cc_matches city code | None -> true)
  && match state with Some code -> state_matches city code | None -> true
