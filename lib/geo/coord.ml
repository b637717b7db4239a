type t = { lat : float; lon : float }

let earth_radius_km = 6371.0088

let make ~lat ~lon =
  if lat < -90.0 || lat > 90.0 then invalid_arg "Coord.make: latitude out of range";
  if lon < -180.0 || lon > 180.0 then invalid_arg "Coord.make: longitude out of range";
  { lat; lon }

let rad d = d *. Float.pi /. 180.0

let distance_km a b =
  let dlat = rad (b.lat -. a.lat) and dlon = rad (b.lon -. a.lon) in
  let h =
    (sin (dlat /. 2.0) ** 2.0)
    +. (cos (rad a.lat) *. cos (rad b.lat) *. (sin (dlon /. 2.0) ** 2.0))
  in
  2.0 *. earth_radius_km *. asin (sqrt (Float.min 1.0 h))

let pp fmt { lat; lon } = Format.fprintf fmt "(%.4f, %.4f)" lat lon
