module City = Hoiho_geodb.City
module Db = Hoiho_geodb.Db
module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Dataset = Hoiho_itdk.Dataset
module Vp = Hoiho_itdk.Vp
module Pipeline = Hoiho.Pipeline
module Plan = Hoiho.Plan
module Ncsel = Hoiho.Ncsel
module Evalx = Hoiho.Evalx
module Learned = Hoiho.Learned
module Cand = Hoiho.Cand
module Truth = Hoiho_netsim.Truth

(* --- tables 1 and 2 --- *)

type coverage = {
  label : string;
  total : int;
  with_hostname : int;
  responsive : int;
  n_vps : int;
  with_apparent : int;
  geolocated : int;
}

let coverage (p : Pipeline.t) =
  let ds = p.Pipeline.dataset in
  (* a router "has an apparent geohint" when stage 2 tagged one of its
     hostnames, or when the suffix's NC extracts an interpretable hint
     from it (a custom code is only interpretable after stage 4, but it
     was still an apparent geohint the operator embedded) *)
  let with_apparent =
    List.fold_left
      (fun acc (r : Pipeline.suffix_result) ->
        acc + max r.Pipeline.n_tagged_routers (Pipeline.geolocated_routers p r))
      0 p.Pipeline.results
  in
  let geolocated =
    List.fold_left
      (fun acc (r : Pipeline.suffix_result) ->
        if Pipeline.usable r then acc + Pipeline.geolocated_routers p r else acc)
      0 p.Pipeline.results
  in
  {
    label = ds.Dataset.label;
    total = Dataset.n_routers ds;
    with_hostname = Dataset.n_with_hostname ds;
    responsive = Dataset.n_responsive ds;
    n_vps = Array.length ds.Dataset.vps;
    with_apparent;
    geolocated;
  }

(* --- table 3 --- *)

type class_counts = { good : int; promising : int; poor : int }

let classifications (p : Pipeline.t) =
  List.fold_left
    (fun acc (r : Pipeline.suffix_result) ->
      match r.Pipeline.classification with
      | Some Ncsel.Good -> { acc with good = acc.good + 1 }
      | Some Ncsel.Promising -> { acc with promising = acc.promising + 1 }
      | Some Ncsel.Poor -> { acc with poor = acc.poor + 1 }
      | None -> acc)
    { good = 0; promising = 0; poor = 0 }
    p.Pipeline.results

(* --- table 4 --- *)

type annot = A_none | A_state | A_country | A_both

type type_breakdown = {
  hint_type : Plan.hint_type;
  annot : annot;
  n_good : int;
  n_promising : int;
}

let nc_hint_type (nc : Ncsel.t) =
  let types =
    List.filter_map (fun (c : Cand.t) -> Plan.hint_type_of c.Cand.plan) nc.Ncsel.cands
    |> List.sort_uniq compare
  in
  match types with [ single ] -> Some (single, false) | t :: _ -> Some (t, true) | [] -> None

let nc_annot (nc : Ncsel.t) =
  let has elem =
    List.exists
      (fun (c : Cand.t) -> List.exists (fun e -> e = elem) c.Cand.plan)
      nc.Ncsel.cands
  in
  match (has Plan.State, has Plan.Cc) with
  | true, true -> A_both
  | true, false -> A_state
  | false, true -> A_country
  | false, false -> A_none

let table4 (p : Pipeline.t) =
  let tbl : (Plan.hint_type * annot, int * int) Hashtbl.t = Hashtbl.create 32 in
  let mixed = ref 0 in
  List.iter
    (fun (r : Pipeline.suffix_result) ->
      match (r.Pipeline.classification, r.Pipeline.nc) with
      | Some cls, Some nc when cls <> Ncsel.Poor -> (
          match nc_hint_type nc with
          | None -> ()
          | Some (ht, is_mixed) ->
              if is_mixed then incr mixed;
              let key = (ht, nc_annot nc) in
              let g, pr = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
              let g, pr =
                if cls = Ncsel.Good then (g + 1, pr) else (g, pr + 1)
              in
              Hashtbl.replace tbl key (g, pr))
      | _ -> ())
    p.Pipeline.results;
  let rows =
    Hashtbl.fold
      (fun (hint_type, annot) (n_good, n_promising) acc ->
        { hint_type; annot; n_good; n_promising } :: acc)
      tbl []
  in
  (rows, !mixed)

(* --- figure 5 --- *)

let fig5a ds =
  let pairs =
    Array.to_list ds.Dataset.routers
    |> List.filter_map (fun (r : Router.t) ->
           match (Router.min_ping_rtt r, Router.min_trace_rtt r) with
           | Some (_, p), Some (_, t) -> Some (p, t)
           | _ -> None)
  in
  let thresholds = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ] in
  List.map
    (fun th ->
      let frac get = Hoiho_util.Stat.fraction (fun x -> get x <= th) pairs in
      (th, frac fst, frac snd))
    thresholds

let fig5b ds =
  let rows =
    Array.to_list ds.Dataset.routers
    |> List.filter_map (fun (r : Router.t) ->
           if Rtts.is_empty r.Router.ping_rtts then None
           else Some (Rtts.length r.Router.trace_rtts, Rtts.length r.Router.ping_rtts))
  in
  let ks = [ 1; 2; 3; 5; 10; 20; 40; 80; 110 ] in
  List.map
    (fun k ->
      let frac get = Hoiho_util.Stat.fraction (fun x -> get x <= k) rows in
      (k, frac fst, frac snd))
    ks

(* --- table 5 --- *)

type learned_freq = {
  hint : string;
  n_suffixes : int;
  city : City.t;
  in_iata_dict : bool;
  alternatives : (string * int) list;
}

(* how many suffixes' NCs extracted each code as a TP *)
let tp_code_suffix_counts (p : Pipeline.t) =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (r : Pipeline.suffix_result) ->
      match r.Pipeline.nc with
      | None -> ()
      | Some nc ->
          let codes = Evalx.unique_tp_hints nc.Ncsel.hits in
          List.iter
            (fun code ->
              Hashtbl.replace tbl code
                (1 + Option.value (Hashtbl.find_opt tbl code) ~default:0))
            codes)
    p.Pipeline.results;
  tbl

let table5 ?(top = 6) (p : Pipeline.t) =
  let db = p.Pipeline.db in
  let counts : (string, int * City.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Pipeline.suffix_result) ->
      List.iter
        (fun (e : Learned.entry) ->
          if String.length e.Learned.hint = 3 then begin
            let n, city =
              Option.value
                (Hashtbl.find_opt counts e.Learned.hint)
                ~default:(0, e.Learned.city)
            in
            Hashtbl.replace counts e.Learned.hint (n + 1, city)
          end)
        (Learned.entries r.Pipeline.learned))
    p.Pipeline.results;
  let code_counts = tp_code_suffix_counts p in
  Hashtbl.fold
    (fun hint (n_suffixes, city) acc ->
      let alternatives =
        List.filter_map
          (fun code ->
            match Hashtbl.find_opt code_counts code with
            | Some n when code <> hint -> Some (code, n)
            | _ -> None)
          city.City.iata
      in
      {
        hint;
        n_suffixes;
        city;
        in_iata_dict = Db.lookup_iata db hint <> [];
        alternatives;
      }
      :: acc)
    counts []
  |> List.sort (fun a b -> compare b.n_suffixes a.n_suffixes)
  |> List.filteri (fun i _ -> i < top)

(* --- figures 10 and 11 --- *)

let vp_proximity_ms (p : Pipeline.t) (city : City.t) =
  Array.fold_left
    (fun acc (vp : Vp.t) ->
      Float.min acc (Lightrtt.min_rtt_ms vp.Vp.coord city.City.coord))
    infinity p.Pipeline.dataset.Dataset.vps

let all_learned (p : Pipeline.t) =
  List.concat_map
    (fun (r : Pipeline.suffix_result) -> Learned.entries r.Pipeline.learned)
    p.Pipeline.results

let fig10a (p : Pipeline.t) =
  List.map (fun (e : Learned.entry) -> vp_proximity_ms p e.Learned.city) (all_learned p)

let fig10b (p : Pipeline.t) =
  let db = p.Pipeline.db in
  List.filter_map
    (fun (e : Learned.entry) ->
      match Db.lookup_iata db e.Learned.hint with
      | airport_city :: _ ->
          Some
            (Coord.distance_km airport_city.City.coord e.Learned.city.City.coord)
      | [] -> None)
    (all_learned p)

let fig11 (p : Pipeline.t) truth ~suffixes =
  Validate.check_learned p truth ~suffixes
  |> List.map (fun (c : Validate.learned_check) ->
         (vp_proximity_ms p c.Validate.learned_city, c.Validate.ok))

let accuracy_at threshold entries =
  let within = List.filter (fun (prox, _) -> prox <= threshold) entries in
  Hoiho_util.Stat.fraction snd within

(* --- CBG feasibility (Cai 2015) --- *)

type feasibility = {
  n_drop : int;
  drop_infeasible : float;
  n_hoiho : int;
  hoiho_infeasible : float;
}

(* Cai probed *distinct locations* that DRoP inferred (4,638 of them),
   not individual hostnames: a suffix's one misread custom code counts
   the same as its hundreds of correctly-read hostnames. We group each
   method's inferences by (suffix, location) and call a location
   infeasible when no router it was inferred for admits it. *)
let cai_feasibility (p : Pipeline.t) =
  let db = p.Pipeline.db in
  let consist = p.Pipeline.consist in
  let drop_rules = Hoiho_baselines.Drop.learn db p.Pipeline.dataset in
  (* every hostname of every suffix, as in the published DRoP dataset
     Cai probed — including suffixes whose rules latched onto strings
     that are not geohints at all *)
  let distinct_locations infer =
    let groups : (string * string, (Router.t * City.t) list) Hashtbl.t =
      Hashtbl.create 256
    in
    Array.iter
      (fun (r : Router.t) ->
        List.iter
          (fun hostname ->
            match Hoiho_psl.Psl.registered_suffix hostname with
            | None -> ()
            | Some suffix -> (
                match infer r hostname with
                | Some (city : City.t) ->
                    let key = (suffix, City.key city) in
                    Hashtbl.replace groups key
                      ((r, city)
                      :: Option.value (Hashtbl.find_opt groups key) ~default:[])
                | None -> ()))
          r.Router.hostnames)
      p.Pipeline.dataset.Dataset.routers;
    Hashtbl.fold (fun _ pairs acc -> pairs :: acc) groups []
  in
  let score groups =
    (* CBG probing needs ping-responsive routers; traceroute-only
       observations constrain almost nothing *)
    let probeable =
      List.filter_map
        (fun pairs ->
          match
            List.filter
              (fun ((r : Router.t), _) -> not (Rtts.is_empty r.Router.ping_rtts))
              pairs
          with
          | [] -> None
          | ping_pairs -> Some ping_pairs)
        groups
    in
    let infeasible =
      List.filter
        (fun pairs ->
          not
            (List.exists
               (fun (router, (city : City.t)) ->
                 Hoiho.Cbg.feasible consist router city.City.coord)
               pairs))
        probeable
    in
    ( List.length probeable,
      if probeable = [] then 0.0
      else float_of_int (List.length infeasible) /. float_of_int (List.length probeable) )
  in
  let n_drop, drop_infeasible =
    score
      (distinct_locations (fun _ hostname ->
           Hoiho_baselines.Drop.infer drop_rules db hostname))
  in
  let n_hoiho, hoiho_infeasible =
    score (distinct_locations (fun _ hostname -> Pipeline.geolocate p hostname))
  in
  { n_drop; drop_infeasible; n_hoiho; hoiho_infeasible }

(* --- stale-hostname detection --- *)

let hostname_is_stale truth (r : Router.t) hostname =
  match Truth.router truth r.Router.id with
  | None -> false
  | Some t -> (
      match List.assoc_opt hostname t.Truth.hostname_hints with
      | Some (Some code) -> t.Truth.intended_hint <> Some code
      | _ -> false)

let stale_accuracy (p : Pipeline.t) truth =
  List.fold_left
    (fun (acc : Hoiho.Stale.accuracy) (r : Pipeline.suffix_result) ->
      match r.Pipeline.nc with
      | Some nc when Pipeline.usable r ->
          let flags = Hoiho.Stale.detect nc in
          let true_stale =
            List.length
              (List.filter
                 (fun (f : Hoiho.Stale.flag) ->
                   hostname_is_stale truth f.Hoiho.Stale.router f.Hoiho.Stale.hostname)
                 flags)
          in
          let actual =
            List.length
              (List.filter
                 (fun (h : Evalx.hit) ->
                   hostname_is_stale truth h.Evalx.sample.Hoiho.Apparent.router
                     h.Evalx.sample.Hoiho.Apparent.hostname)
                 nc.Ncsel.hits)
          in
          {
            Hoiho.Stale.flagged = acc.Hoiho.Stale.flagged + List.length flags;
            true_stale = acc.Hoiho.Stale.true_stale + true_stale;
            actual_stale = acc.Hoiho.Stale.actual_stale + actual;
          }
      | _ -> acc)
    { Hoiho.Stale.flagged = 0; true_stale = 0; actual_stale = 0 }
    p.Pipeline.results

(* --- ablation --- *)

type ablation = {
  with_learning : Validate.scores;
  without_learning : Validate.scores;
}

let score_pipeline (p : Pipeline.t) truth ~suffixes =
  let scores =
    List.map
      (fun suffix ->
        let gts = Validate.ground_truth_hostnames p.Pipeline.dataset truth ~suffix in
        Validate.score
          (fun (gt : Validate.gt_hostname) -> Pipeline.geolocate p gt.Validate.hostname)
          gts)
      suffixes
  in
  List.fold_left
    (fun (acc : Validate.scores) (s : Validate.scores) ->
      {
        Validate.tp = acc.Validate.tp + s.Validate.tp;
        fp = acc.Validate.fp + s.Validate.fp;
        fn = acc.Validate.fn + s.Validate.fn;
      })
    { Validate.tp = 0; fp = 0; fn = 0 }
    scores

let ablation ds truth ~suffixes =
  let db = Truth.db truth in
  let with_l = Pipeline.run ~db ds in
  let without_l = Pipeline.run ~db ~learn_geohints:false ds in
  {
    with_learning = score_pipeline with_l truth ~suffixes;
    without_learning = score_pipeline without_l truth ~suffixes;
  }
