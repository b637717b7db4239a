module Prng = Hoiho_util.Prng
module City = Hoiho_geodb.City
module Db = Hoiho_geodb.Db
module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Vp = Hoiho_itdk.Vp
module Dataset = Hoiho_itdk.Dataset

type config = {
  label : string;
  seed : int;
  n_geo_consistent : int;
  n_geo_small : int;
  n_geo_mixed : int;
  n_multikind : int;
  n_compound : int;
  n_nogeo : int;
  n_extra_towns : int;
  n_spoofing_vps : int;
  include_validation : bool;
  n_vps : int;
  hostname_fraction : float;
  p_responsive_unnamed : float;
}

let make_vps rng db n =
  let candidates =
    List.filter (fun c -> c.City.iata <> [] && c.City.population > 150000) (Db.cities db)
  in
  let weighted =
    Array.of_list
      (List.map (fun c -> (c, sqrt (float_of_int c.City.population))) candidates)
  in
  let chosen = Hashtbl.create n in
  let out = ref [] in
  let attempts = ref 0 in
  while Hashtbl.length chosen < n && !attempts < n * 60 do
    incr attempts;
    let city = Prng.weighted rng weighted in
    let key = City.key city in
    if not (Hashtbl.mem chosen key) then begin
      Hashtbl.replace chosen key ();
      out := city :: !out
    end
  done;
  let cities = Array.of_list (List.rev !out) in
  Array.mapi
    (fun id city ->
      let code = match city.City.iata with c :: _ -> c | [] -> City.squashed city in
      Vp.make ~id
        ~name:(Printf.sprintf "%s-%s" code city.City.cc)
        ~city_key:(City.key city) ~coord:city.City.coord)
    cities

(* --- RTT model --- *)

let ping_rtt rng ~vp_coord ~loc =
  let base = Lightrtt.min_rtt_ms vp_coord loc in
  (base *. (1.05 +. Prng.exponential rng ~mean:0.25))
  +. 0.3 +. Prng.float rng 2.2

let trace_rtt rng ~vp_coord ~loc =
  let base = Lightrtt.min_rtt_ms vp_coord loc in
  (base *. (1.25 +. Prng.exponential rng ~mean:0.9))
  +. 1.0 +. Prng.float rng 8.0

let ping_rtts rng vps ~loc ~responsive =
  if not responsive then Rtts.empty
  else begin
    (* with p=0.9 the router is reachable from (nearly) all VPs; else a
       random subset, mirroring fig. 5's 89.4% all-VP coverage *)
    let p_vp = if Prng.float rng 1.0 < 0.9 then 0.99 else 0.3 +. Prng.float rng 0.5 in
    Array.to_list vps
    |> List.filter_map (fun (vp : Vp.t) ->
           if Prng.float rng 1.0 < p_vp then
             Some (vp.Vp.id, ping_rtt rng ~vp_coord:vp.Vp.coord ~loc)
           else None)
    |> Rtts.of_list
  end

let trace_vp_count rng n_vps =
  let u = Prng.float rng 1.0 in
  let k =
    if u < 0.36 then 1
    else if u < 0.52 then 2
    else if u < 0.63 then 3
    else 3 + int_of_float (Prng.exponential rng ~mean:5.0)
  in
  max 1 (min n_vps k)

let trace_rtts rng vps ~loc =
  let n = Array.length vps in
  let k = trace_vp_count rng n in
  let ids = Array.init n (fun i -> i) in
  Prng.shuffle rng ids;
  Array.sub ids 0 k |> Array.to_list
  |> List.map (fun id ->
         let vp = vps.(id) in
         (vp.Vp.id, trace_rtt rng ~vp_coord:vp.Vp.coord ~loc))
  |> Rtts.of_list

(* --- hostname rendering for one router --- *)

(* a no-geo variant of a template: geo tokens become junk, cc/state
   tokens disappear *)
let degeo template =
  List.filter_map
    (fun label ->
      let label =
        List.filter_map
          (fun tok ->
            match tok with
            | Conv.Geo | Conv.GeoDig | Conv.GeoCompound | Conv.GeoSplitClli -> Some Conv.Junk
            | Conv.Cc | Conv.State -> None
            | other -> Some other)
          label
      in
      if label = [] then None else Some label)
    template

let router_hostnames rng (op : Oper.t) (site : Oper.site) =
  let lo, hi = op.Oper.hostnames_per_router in
  let n = Prng.range rng lo hi in
  let stale_site () =
    match List.filter (fun (s : Oper.site) -> s != site) op.Oper.sites with
    | [] -> site
    | others -> Prng.pick_list rng others
  in
  let templates = op.Oper.conv.Conv.templates in
  let template =
    match site.Oper.tpl with
    | Some i when i < List.length templates -> List.nth templates i
    | _ -> Prng.pick_list rng templates
  in
  let embed =
    op.Oper.p_embed > 0.0
    && Prng.float rng 1.0 < op.Oper.p_embed
    && site.Oper.code <> ""
    && (let has_geo, _, _ = Conv.geo_label_kinds template in
        has_geo)
  in
  let template = if embed then template else degeo template in
  let city = site.Oper.city in
  (* the router's interfaces share the stable part of the name *)
  let shared =
    Conv.render_router rng template ~geo:site.Oper.code ~cc:city.City.cc
      ~state:city.City.state ~asn:op.Oper.asn ~count:n op.Oper.suffix
  in
  List.map
    (fun hostname ->
      (* an interface may keep a hostname from a previous assignment *)
      if embed && Prng.float rng 1.0 < op.Oper.p_stale then begin
        let src = stale_site () in
        let stale_city = src.Oper.city in
        let h =
          Conv.render rng template ~geo:src.Oper.code ~cc:stale_city.City.cc
            ~state:stale_city.City.state ~asn:op.Oper.asn op.Oper.suffix
        in
        (h, Some src.Oper.code, src != site)
      end
      else (hostname, (if embed then Some site.Oper.code else None), false))
    shared

(* a customer device named under the provider's suffix (figure 3b):
   carries the customer's ASN; the hostname embeds the provider's
   geohint and the customer ASN *)
let customer_template =
  [ [ Conv.AsnTok; Conv.Junk ]; [ Conv.Role "gw" ]; [ Conv.GeoDig ] ]

let fresh_router rng vps ~id (op : Oper.t) (site : Oper.site) =
  let city = site.Oper.city in
  let loc = city.City.coord in
  let customer = Prng.float rng 1.0 < op.Oper.p_customer in
  let asn =
    if customer then 1000 + Prng.int rng 64000 else op.Oper.asn
  in
  let named =
    if customer then begin
      let hostname =
        Conv.render rng customer_template ~geo:site.Oper.code
          ~cc:city.City.cc ~state:city.City.state ~asn op.Oper.suffix
      in
      [ (hostname,
         (if site.Oper.code = "" then None else Some site.Oper.code),
         false) ]
    end
    else router_hostnames rng op site
  in
  let hostnames = List.map (fun (h, _, _) -> h) named in
  let stale = List.exists (fun (_, _, st) -> st) named in
  let hostname_hints = List.map (fun (h, hint, _) -> (h, hint)) named in
  let responsive = Prng.float rng 1.0 < op.Oper.p_responsive in
  let truth =
    {
      Truth.city_key = City.key city;
      coord = loc;
      intended_hint = (if site.Oper.code = "" then None else Some site.Oper.code);
      stale;
      hostname_hints;
    }
  in
  ( Router.make id ~hostnames ~asn
      ~ping_rtts:(ping_rtts rng vps ~loc ~responsive)
      ~trace_rtts:(trace_rtts rng vps ~loc),
    truth )

let routers_of_operator rng vps next_id (op : Oper.t) =
  let site_router_lists =
    List.map
      (fun (site : Oper.site) ->
        List.init site.Oper.n_routers (fun _ ->
          let id = !next_id in
          incr next_id;
          fresh_router rng vps ~id op site))
      op.Oper.sites
  in
  (* traceroute-observed adjacency: a chain within each site (PoP), and
     a backbone link between consecutive sites *)
  let links = ref [] in
  List.iter
    (fun site_routers ->
      List.iteri
        (fun i ((r : Router.t), _) ->
          if i > 0 then
            links := ((fst (List.nth site_routers (i - 1))).Router.id, r.Router.id) :: !links)
        site_routers)
    site_router_lists;
  let rec backbone = function
    | (({ Router.id = a; _ }, _) :: _) :: ((({ Router.id = b; _ }, _) :: _) as next) :: rest ->
        links := (a, b) :: !links;
        backbone (next :: rest)
    | _ :: rest -> backbone rest
    | [] -> ()
  in
  backbone site_router_lists;
  (List.concat site_router_lists, List.rev !links)

let unnamed_routers rng db vps next_id n p_responsive =
  let cities = Array.of_list (Db.cities db) in
  List.init n (fun _ ->
      let id = !next_id in
      incr next_id;
      let city = Prng.pick rng cities in
      let loc = city.City.coord in
      let responsive = Prng.float rng 1.0 < p_responsive in
      let truth =
        {
          Truth.city_key = City.key city;
          coord = loc;
          intended_hint = None;
          stale = false;
          hostname_hints = [];
        }
      in
      ( Router.make id
          ~ping_rtts:(ping_rtts rng vps ~loc ~responsive)
          ~trace_rtts:(trace_rtts rng vps ~loc),
        truth ))

(* a VP whose access router spoofs responses: RTTs of 1-2 ms no matter
   how far the probed router is (§5.1.4) *)
let spoof_rtts rng spoofers rtts =
  Rtts.map
    (fun vp_id rtt ->
      if List.mem vp_id spoofers then (vp_id, 1.0 +. Prng.float rng 1.0)
      else (vp_id, rtt))
    rtts

let generate config =
  let rng = Prng.create config.seed in
  let db =
    if config.n_extra_towns = 0 then Db.default ()
    else
      Db.of_cities
        (Hoiho_geodb.Synth.expand (Prng.split rng) config.n_extra_towns
           (Db.cities (Db.default ())))
  in
  let vps = make_vps (Prng.split rng) db config.n_vps in
  let op_rng = Prng.split rng in
  let ops =
    (if config.include_validation then Oper.validation op_rng db else [])
    @ List.init config.n_geo_consistent (fun _ ->
          Oper.random_geo op_rng db ~kind:Oper.GeoConsistent)
    @ List.init config.n_geo_small (fun _ ->
          Oper.random_geo op_rng db ~kind:Oper.GeoSmall)
    @ List.init config.n_geo_mixed (fun _ ->
          Oper.random_geo op_rng db ~kind:Oper.GeoMixed)
    @ List.init config.n_multikind (fun _ -> Oper.random_multikind op_rng db)
    @ List.init config.n_compound (fun _ -> Oper.random_compound op_rng db)
    @ List.init config.n_nogeo (fun _ -> Oper.random_nogeo op_rng db)
  in
  let next_id = ref 0 in
  let router_rng = Prng.split rng in
  let per_op = List.map (routers_of_operator router_rng vps next_id) ops in
  let named = List.concat_map fst per_op in
  let links = List.concat_map snd per_op in
  let n_named = List.length named in
  let n_unnamed =
    let f = config.hostname_fraction in
    if f <= 0.0 || f >= 1.0 then 0
    else int_of_float (float_of_int n_named *. ((1.0 -. f) /. f))
  in
  let unnamed =
    unnamed_routers router_rng db vps next_id n_unnamed config.p_responsive_unnamed
  in
  let with_truth = named @ unnamed in
  let routers = Array.of_list (List.map fst with_truth) in
  let routers =
    if config.n_spoofing_vps = 0 then routers
    else begin
      let n = min config.n_spoofing_vps (Array.length vps) in
      let spoofers = List.init n (fun i -> (vps.(i)).Vp.id) in
      let spoof_rng = Prng.split rng in
      Array.map
        (fun (r : Router.t) ->
          {
            r with
            Router.ping_rtts = spoof_rtts spoof_rng spoofers r.Router.ping_rtts;
          })
        routers
    end
  in
  ( Dataset.make ~label:config.label ~links:(Array.of_list links) ~routers ~vps (),
    Truth.make ~db ops (List.map (fun ((r : Router.t), t) -> (r.Router.id, t)) with_truth) )
