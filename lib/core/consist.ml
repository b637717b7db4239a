module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Vp = Hoiho_itdk.Vp
module Dataset = Hoiho_itdk.Dataset

(* measured RTTs are quantized/jittered; allow a small slack so a router
   colocated with a VP is not rejected by sub-ms noise *)
let slack_ms = 0.5

(* Read-only after construction: [t] is shared across the pool's
   domains during a parallel pipeline run, so nothing here may mutate
   shared state after [create] returns. [stamp] tells one [t]'s RTT
   memo apart from another's. *)
type t = { dataset : Dataset.t; vp_by_id : Vp.t array; stamp : int }

exception Unknown_vp of int

let () =
  Printexc.register_printer (function
    | Unknown_vp id -> Some (Printf.sprintf "Hoiho.Consist.Unknown_vp(%d)" id)
    | _ -> None)

(* The best-case RTT memo: per location, the bound from every slot of
   [vp_by_id], nan where no VP carries the id. Each domain fills its
   own, which costs some duplicated haversines but needs no locking on
   the hottest read path in the system, and keeps only the memo of the
   [t] it used last. A DLS key is never freed, so one key per [t] kept
   the memo of every past learn alive in every domain of the pool. *)
let memo : (int * (Coord.t, Float.Array.t) Hashtbl.t) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (-1, Hashtbl.create 1))

let stamps = Atomic.make 0

let create dataset =
  let max_id =
    Array.fold_left (fun m (v : Vp.t) -> max m v.Vp.id) 0 dataset.Dataset.vps
  in
  let vp_by_id =
    if Array.length dataset.Dataset.vps = 0 then [||]
    else begin
      let vp_by_id = Array.make (max_id + 1) dataset.Dataset.vps.(0) in
      Array.iter (fun (v : Vp.t) -> vp_by_id.(v.Vp.id) <- v) dataset.Dataset.vps;
      vp_by_id
    end
  in
  { dataset; vp_by_id; stamp = Atomic.fetch_and_add stamps 1 }

let dataset t = t.dataset

(* [vp_by_id] is a dense table seeded with vps.(0) as filler, so a hole
   (an id inside the range that no VP carries) holds a VP whose own id
   disagrees with the slot — both out-of-range and dangling ids get the
   same descriptive, deterministic error instead of a bare
   Invalid_argument from Array indexing *)
let vp_of t id =
  if id < 0 || id >= Array.length t.vp_by_id then raise (Unknown_vp id)
  else
    let v = t.vp_by_id.(id) in
    if v.Vp.id <> id then raise (Unknown_vp id);
    v

let bounds t (loc : Coord.t) =
  let slot = Domain.DLS.get memo in
  let by_loc =
    match !slot with
    | owner, by_loc when owner = t.stamp -> by_loc
    | _ ->
        let by_loc = Hashtbl.create 1024 in
        slot := (t.stamp, by_loc);
        by_loc
  in
  match Hashtbl.find_opt by_loc loc with
  | Some b -> b
  | None ->
      let b =
        Float.Array.init (Array.length t.vp_by_id) (fun id ->
            let v = t.vp_by_id.(id) in
            if v.Vp.id = id then Lightrtt.min_rtt_ms v.Vp.coord loc else Float.nan)
      in
      Hashtbl.add by_loc loc b;
      b

(* every sample admits [loc]; the first one that does not is either
   faster than light allows or names a VP the dataset lacks, and then
   [vp_of] raises *)
let admits t rtts loc =
  Rtts.is_empty rtts
  ||
  let i = Rtts.first_below rtts ~slack:slack_ms (bounds t loc) in
  i < 0
  ||
  (ignore (vp_of t (Rtts.vp rtts i));
   false)

(* ping when there is any, traceroute otherwise *)
let preferred (r : Router.t) =
  if Rtts.is_empty r.Router.ping_rtts then r.Router.trace_rtts else r.Router.ping_rtts

let router_rtts t r =
  List.map (fun (id, rtt) -> (vp_of t id, rtt)) (Rtts.to_list (preferred r))

let location_consistent t r loc = admits t (preferred r) loc

type channel = Ping | Trace

let channel_consistent t (r : Router.t) channel loc =
  admits t
    (match channel with Ping -> r.Router.ping_rtts | Trace -> r.Router.trace_rtts)
    loc

let city_consistent t r (city : Hoiho_geodb.City.t) =
  location_consistent t r city.Hoiho_geodb.City.coord
