module City = Hoiho_geodb.City
module Db = Hoiho_geodb.Db
module Strutil = Hoiho_util.Strutil
module Router = Hoiho_itdk.Router

let min_contiguous_for_city_plans = 4

let abbrev_matches ~hint ~name =
  let words = String.split_on_char ' ' name |> List.filter (fun w -> w <> "") in
  match words with
  | [] -> false
  | first :: _ when String.length first = 0 || String.length hint = 0 -> false
  | first :: rest_words ->
      if hint.[0] <> first.[0] then false
      else begin
        let hl = String.length hint in
        (* inside a word: subsequence matching; moving to a later word
           requires matching its first letter (or skipping it wholly) *)
        let rec in_word i w wi words =
          if i = hl then true
          else if wi < String.length w then
            (w.[wi] = hint.[i] && in_word (i + 1) w (wi + 1) words)
            || in_word i w (wi + 1) words
          else next_word i words
        and next_word i words =
          if i = hl then true
          else
            match words with
            | [] -> false
            | w :: ws ->
                (String.length w > 0 && w.[0] = hint.[i]
                && in_word (i + 1) w 1 ws)
                || next_word i ws
        in
        in_word 1 first 1 rest_words
      end

let eligible (nc : Ncsel.t) =
  nc.Ncsel.unique_hints >= 3 && Evalx.ppv nc.Ncsel.counts > 0.4

(* group FP/UNK extractions: hint -> routers and region codes observed *)
type pending = {
  hint : string;
  hint_type : Plan.hint_type;
  cc : string option;
  state : string option;
  mutable routers : Router.t list;
}

let pending_of_hits hits =
  let tbl : (string, pending) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (h : Evalx.hit) ->
      match (h.Evalx.outcome, h.Evalx.extraction) with
      | (Evalx.FP | Evalx.UNK), Some ex ->
          let key =
            Printf.sprintf "%s/%s" (Plan.hint_type_name ex.Plan.hint_type) ex.Plan.hint
          in
          let p =
            match Hashtbl.find_opt tbl key with
            | Some p -> p
            | None ->
                let p =
                  {
                    hint = ex.Plan.hint;
                    hint_type = ex.Plan.hint_type;
                    cc = ex.Plan.cc;
                    state = ex.Plan.state;
                    routers = [];
                  }
                in
                Hashtbl.replace tbl key p;
                p
          in
          let router = h.Evalx.sample.Apparent.router in
          if not (List.exists (fun r -> r.Router.id = router.Router.id) p.routers)
          then p.routers <- router :: p.routers
      | _ -> ())
    hits;
  Hashtbl.fold (fun _ p acc -> p :: acc) tbl []

(* for CLLI-style hints the trailing region code is part of the string:
   "mlanit" = "mlan" + "it"; match the city part against the name and the
   region part against the city's country/state *)
let candidate_cities db (p : pending) =
  let by_name match_name =
    Db.fold_cities (fun city acc -> if match_name city then city :: acc else acc) db []
  in
  let filter_region = List.filter (Dicts.in_region ~cc:p.cc ~state:p.state) in
  match p.hint_type with
  | Plan.Clli when String.length p.hint >= 6 ->
      let cityp = String.sub p.hint 0 4 in
      let region = String.sub p.hint 4 2 in
      by_name (fun city ->
          abbrev_matches ~hint:cityp ~name:city.City.name
          && (Dicts.region_matches city region || City.clli_region city = region))
      |> filter_region
  | Plan.Locode when String.length p.hint = 5 ->
      let country = String.sub p.hint 0 2 in
      let loc = String.sub p.hint 2 3 in
      by_name (fun city ->
          Dicts.cc_matches city country && abbrev_matches ~hint:loc ~name:city.City.name)
      |> filter_region
  | Plan.CityName ->
      by_name (fun city ->
          abbrev_matches ~hint:p.hint ~name:city.City.name
          && Strutil.longest_common_run p.hint (City.squashed city)
             >= min min_contiguous_for_city_plans (String.length p.hint))
      |> filter_region
  | Plan.Iata | Plan.Icao | Plan.FacilityAddr | Plan.Clli | Plan.Locode ->
      by_name (fun city -> abbrev_matches ~hint:p.hint ~name:city.City.name)
      |> filter_region

let count_consistency consist routers (city : City.t) =
  List.fold_left
    (fun (tp, fp) r ->
      if Consist.city_consistent consist r city then (tp + 1, fp) else (tp, fp + 1))
    (0, 0) routers

(* how many of these routers the existing dictionary interpretation can
   explain (§5.4: "an existing geohint might be correct") *)
let existing_tp consist db (p : pending) =
  let cities = Dicts.lookup db p.hint_type p.hint in
  List.fold_left
    (fun acc r ->
      if List.exists (Consist.city_consistent consist r) cities then acc + 1 else acc)
    0 p.routers

let learn consist db (nc : Ncsel.t) =
  let learned = Learned.empty () in
  if not (eligible nc) then learned
  else begin
    let pendings = pending_of_hits nc.Ncsel.hits in
    List.iter
      (fun p ->
        let required = if p.cc <> None || p.state <> None then 1 else 3 in
        let candidates = candidate_cities db p in
        let scored =
          List.map (fun city -> (city, count_consistency consist p.routers city)) candidates
        in
        let ranked =
          List.sort
            (fun (ca, (tpa, _)) (cb, (tpb, _)) ->
              let fa = ca.City.facilities <> [] and fb = cb.City.facilities <> [] in
              if fa <> fb then compare fb fa
              else if ca.City.population <> cb.City.population then
                compare cb.City.population ca.City.population
              else compare tpb tpa)
            scored
        in
        match ranked with
        | [] -> ()
        | (city, (tp, fp)) :: _ ->
            let ppv =
              if tp + fp = 0 then 0.0 else float_of_int tp /. float_of_int (tp + fp)
            in
            let existing = existing_tp consist db p in
            if ppv >= 0.8 && tp > existing + 1 && tp >= required then
              Learned.add learned
                {
                  Learned.hint = p.hint;
                  hint_type = p.hint_type;
                  city;
                  tp;
                  fp;
                  collides = Dicts.lookup db p.hint_type p.hint <> [];
                })
      pendings;
    learned
  end
