(* Shared fixtures for the test suites: a miniature world, hand-built
   datasets with exactly-controlled RTTs, and small conveniences. *)

module City = Hoiho_geodb.City
module Db = Hoiho_geodb.Db
module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Vp = Hoiho_itdk.Vp
module Dataset = Hoiho_itdk.Dataset

let db = Db.default ()

let city name cc =
  match
    List.filter
      (fun c -> c.City.cc = cc)
      (Db.lookup_city_name db (String.concat "" (String.split_on_char ' ' name)))
  with
  | c :: _ -> c
  | [] -> Alcotest.failf "fixture city %s/%s missing from Db.default" name cc

let city_st name cc st =
  match
    List.filter
      (fun c -> c.City.cc = cc && c.City.state = Some st)
      (Db.lookup_city_name db (String.concat "" (String.split_on_char ' ' name)))
  with
  | c :: _ -> c
  | [] -> Alcotest.failf "fixture city %s/%s/%s missing" name cc st

(* a VP colocated with a city *)
let vp id c =
  Vp.make ~id
    ~name:(Printf.sprintf "vp%d-%s" id c.City.cc)
    ~city_key:(City.key c) ~coord:c.City.coord

(* a realistic sound RTT: best-case from the VP to the router's true
   location, inflated *)
let rtt_from (v : Vp.t) (loc : Coord.t) =
  (Lightrtt.min_rtt_ms v.Vp.coord loc *. 1.3) +. 1.0

let router ~id ~at ~vps ?(hostnames = []) () =
  let ping_rtts =
    List.map (fun (v : Vp.t) -> (v.Vp.id, rtt_from v at.City.coord)) vps
  in
  Router.make id ~hostnames ~ping_rtts:(Hoiho_itdk.Rtts.of_list ping_rtts)

let dataset ?(label = "test") ?(links = []) routers vps =
  Dataset.make ~label
    ~links:(Array.of_list links)
    ~routers:(Array.of_list routers)
    ~vps:(Array.of_list vps) ()

(* the standard small VP constellation used across suites: one VP near
   each region we place routers in *)
let std_vps () =
  [
    vp 0 (city_st "washington" "us" "dc");
    vp 1 (city_st "chicago" "us" "il");
    vp 2 (city_st "los angeles" "us" "ca");
    vp 3 (city "london" "gb");
    vp 4 (city "frankfurt" "de");
    vp 5 (city "tokyo" "jp");
    vp 6 (city "sydney" "au");
    vp 7 (city "sao paulo" "br");
  ]

let check_city = Alcotest.testable City.pp City.same_place

let tc name f = Alcotest.test_case name `Quick f

(* A controlled training group under "example.net": [sites] is a list of
   (city, code, n_routers); each router gets [per_router] hostnames of
   the shape "<iface>.cr<k>.<code><n>.example.net". *)
let suffix_fixture ?(suffix = "example.net") ?(per_router = 2) sites =
  let vps = std_vps () in
  let id = ref 0 in
  let iface = [| "ae1"; "xe-0-0"; "ge-1-2"; "et-3-0"; "so-1-1-0" |] in
  let routers =
    List.concat_map
      (fun (c, code, n_routers) ->
        List.init n_routers (fun r ->
            let hostnames =
              List.init per_router (fun h ->
                  Printf.sprintf "%s.cr%d.%s%d.%s"
                    iface.((r + h) mod Array.length iface)
                    ((r mod 3) + 1) code (r + 1) suffix)
            in
            let rid = !id in
            incr id;
            router ~id:rid ~at:c ~vps ~hostnames ()))
      sites
  in
  (dataset routers vps, routers, vps)

(* standard multi-city IATA fixture: enough distinct real codes for a
   confident NC, plus optional extra (city, code, n_routers) sites *)
let iata_fixture ?(extra = []) () =
  suffix_fixture
    ([
       (city "london" "gb", "lhr", 3);
       (city "frankfurt" "de", "fra", 3);
       (city_st "seattle" "us" "wa", "sea", 3);
       (city_st "chicago" "us" "il", "ord", 3);
     ]
    @ extra)

(* substring test, for asserting over rendered reports *)
let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0
