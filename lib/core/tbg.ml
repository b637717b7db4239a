module City = Hoiho_geodb.City
module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router

type anchor = { router_id : int; city : City.t }

type inference = {
  router_id : int;
  city : City.t;
  via : int;
  n_anchor_neighbors : int;
}

let anchors_of_pipeline (p : Pipeline.t) =
  let anchors : (int, City.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (r : Pipeline.suffix_result) ->
      match r.Pipeline.nc with
      | Some nc when Pipeline.usable r ->
          List.iter
            (fun (h : Evalx.hit) ->
              match (h.Evalx.outcome, h.Evalx.location) with
              | Evalx.TP, Some city ->
                  Hashtbl.replace anchors h.Evalx.sample.Apparent.router.Router.id city
              | _ -> ())
            nc.Ncsel.hits
      | _ -> ())
    p.Pipeline.results;
  Hashtbl.fold (fun router_id city acc -> { router_id; city } :: acc) anchors []

let infer consist dataset (anchors : anchor list) =
  let anchored : (int, City.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun (a : anchor) -> Hashtbl.replace anchored a.router_id a.city) anchors;
  (* each router's neighbors, built in one pass over the links: latest
     link first *)
  let neighbors : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let add a b =
    Hashtbl.replace neighbors a (b :: Option.value (Hashtbl.find_opt neighbors a) ~default:[])
  in
  Array.iter
    (fun (a, b) ->
      add a b;
      if b <> a then add b a)
    dataset.Dataset.links;
  Array.to_list dataset.Dataset.routers
  |> List.filter_map (fun (r : Router.t) ->
         if Hashtbl.mem anchored r.Router.id then None
         else begin
           (* anchored neighbors whose location this router's own RTTs
              admit *)
           let candidates =
             Option.value (Hashtbl.find_opt neighbors r.Router.id) ~default:[]
             |> List.filter_map (fun nid ->
                    match Hashtbl.find_opt anchored nid with
                    | Some city when Consist.city_consistent consist r city ->
                        Some (nid, city)
                    | _ -> None)
           in
           match candidates with
           | [] -> None
           | (via, first) :: _ ->
               (* majority location among anchored neighbors *)
               let counts = Hashtbl.create 4 in
               List.iter
                 (fun (_, (c : City.t)) ->
                   let k = City.key c in
                   Hashtbl.replace counts k
                     (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
                 candidates;
               let best_key, _ =
                 Hashtbl.fold
                   (fun k n (bk, bn) -> if n > bn then (k, n) else (bk, bn))
                   counts ("", 0)
               in
               let city, via =
                 match
                   List.find_opt (fun (_, c) -> City.key c = best_key) candidates
                 with
                 | Some (v, c) -> (c, v)
                 | None -> (first, via)
               in
               Some
                 {
                   router_id = r.Router.id;
                   city;
                   via;
                   n_anchor_neighbors = List.length candidates;
                 }
         end)

let coverage_gain (p : Pipeline.t) =
  let anchors = anchors_of_pipeline p in
  (infer p.Pipeline.consist p.Pipeline.dataset anchors, List.length anchors)
