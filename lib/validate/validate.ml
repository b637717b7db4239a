module Coord = Hoiho_geo.Coord
module City = Hoiho_geodb.City
module Db = Hoiho_geodb.Db
module Router = Hoiho_itdk.Router
module Dataset = Hoiho_itdk.Dataset
module Psl = Hoiho_psl.Psl
module Truth = Hoiho_netsim.Truth

let threshold_km = 40.0

let correct (city : City.t) true_coord =
  Coord.distance_km city.City.coord true_coord <= threshold_km

type scores = { tp : int; fp : int; fn : int }

let total s = s.tp + s.fp + s.fn
let pct n d = if d = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int d
let tp_pct s = pct s.tp (total s)
let fp_pct s = pct s.fp (total s)
let fn_pct s = pct s.fn (total s)
let ppv s = if s.tp + s.fp = 0 then 0.0 else pct s.tp (s.tp + s.fp) /. 100.0

type gt_hostname = {
  hostname : string;
  router : Router.t;
  true_coord : Coord.t;
  code : string;
}

let ground_truth_hostnames dataset truth ~suffix =
  Array.to_list dataset.Dataset.routers
  |> List.concat_map (fun (r : Router.t) ->
         match Truth.router truth r.Router.id with
         | None -> []
         | Some t ->
             List.filter_map
               (fun (hostname, hint) ->
                 match hint with
                 | Some code when Psl.registered_suffix hostname = Some suffix ->
                     Some { hostname; router = r; true_coord = t.Truth.coord; code }
                 | _ -> None)
               t.Truth.hostname_hints)

let score infer gts =
  List.fold_left
    (fun acc gt ->
      match infer gt with
      | Some city ->
          if correct city gt.true_coord then { acc with tp = acc.tp + 1 }
          else { acc with fp = acc.fp + 1 }
      | None -> { acc with fn = acc.fn + 1 })
    { tp = 0; fp = 0; fn = 0 }
    gts

type comparison = {
  suffix : string;
  n : int;
  hoiho : scores;
  hloc : scores;
  drop : scores;
  undns : scores;
}

let undns_coverage = 0.6
let undns_seed = 2014

(* DRoP's published rules predate the evaluation data by 7+ years; a
   large share of the suffixes it once covered no longer match *)
let drop_staleness = 0.45

let undns_tables db truth suffixes =
  List.filter_map
    (fun suffix ->
      match Truth.find truth suffix with
      | None -> None
      | Some op ->
          let codes =
            List.filter_map
              (fun (code, city_key) ->
                Option.map (fun c -> (code, c)) (Db.find_city db ~key:city_key))
              (Hoiho_netsim.Oper.codebook op)
          in
          Some (suffix, codes))
    suffixes

let compare_methods (pipeline : Hoiho.Pipeline.t) truth ~suffixes =
  let db = pipeline.Hoiho.Pipeline.db in
  let dataset = pipeline.Hoiho.Pipeline.dataset in
  let drop_rules = Hoiho_baselines.Drop.learn ~staleness:drop_staleness db dataset in
  let undns =
    Hoiho_baselines.Undns.make ~coverage:undns_coverage ~seed:undns_seed
      (undns_tables db truth suffixes)
  in
  List.map
    (fun suffix ->
      let gts = ground_truth_hostnames dataset truth ~suffix in
      {
        suffix;
        n = List.length gts;
        hoiho = score (fun gt -> Hoiho.Pipeline.geolocate pipeline gt.hostname) gts;
        hloc =
          score (fun gt -> Hoiho_baselines.Hloc.infer db dataset gt.router gt.hostname) gts;
        drop = score (fun gt -> Hoiho_baselines.Drop.infer drop_rules db gt.hostname) gts;
        undns = score (fun gt -> Hoiho_baselines.Undns.infer undns gt.hostname) gts;
      })
    suffixes

type learned_check = {
  suffix : string;
  hint : string;
  learned_city : City.t;
  true_city_key : string option;
  ok : bool;
}

let check_learned (pipeline : Hoiho.Pipeline.t) truth ~suffixes =
  let db = pipeline.Hoiho.Pipeline.db in
  List.concat_map
    (fun suffix ->
      match Hoiho.Pipeline.find pipeline suffix with
      | None -> []
      | Some result ->
          List.map
            (fun (e : Hoiho.Learned.entry) ->
              let true_city_key = Truth.code_city truth ~suffix e.Hoiho.Learned.hint in
              let ok =
                match true_city_key with
                | None -> false
                | Some key -> (
                    key = City.key e.Hoiho.Learned.city
                    ||
                    match Db.find_city db ~key with
                    | Some true_city ->
                        Coord.distance_km true_city.City.coord
                          e.Hoiho.Learned.city.City.coord
                        <= threshold_km
                    | None -> false)
              in
              {
                suffix;
                hint = e.Hoiho.Learned.hint;
                learned_city = e.Hoiho.Learned.city;
                true_city_key;
                ok;
              })
            (Hoiho.Learned.entries result.Hoiho.Pipeline.learned))
    suffixes
