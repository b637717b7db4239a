(** Geographic coordinates and great-circle geometry.

    Distances use the haversine formula on a spherical Earth
    (radius 6371.0088 km), which is accurate to ~0.5% — far finer than
    the speed-of-light constraints the geolocation method relies on. *)

type t = { lat : float; lon : float }
(** Decimal degrees; latitude in \[-90, 90\], longitude in \[-180, 180\]. *)

val make : lat:float -> lon:float -> t
(** Raises [Invalid_argument] when out of range. *)

val distance_km : t -> t -> float
(** Great-circle distance in kilometres. *)

val pp : Format.formatter -> t -> unit
