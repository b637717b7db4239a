module Prng = Hoiho_util.Prng
module City = Hoiho_geodb.City
module Router = Hoiho_itdk.Router
module Dataset = Hoiho_itdk.Dataset

type config = {
  seed : int;
  p_renumber : float;
  p_migrate : float;
  p_decay : float;
  p_add : float;
  p_remove : float;
}

let default ~seed =
  {
    seed;
    p_renumber = 0.08;
    p_migrate = 0.12;
    p_decay = 0.5;
    p_add = 0.04;
    p_remove = 0.03;
  }

(* replace a router's hostnames with a fresh rendering under [op]'s
   (possibly migrated) convention, keeping its RTT observations — the
   router did not move, only its names changed, and its answer key with
   them *)
let rerender rng (op : Oper.t) (site : Oper.site) ((r : Router.t), (t : Truth.router)) =
  let named = Generate.router_hostnames rng op site in
  let hostnames = List.map (fun (h, _, _) -> h) named in
  let stale = List.exists (fun (_, _, st) -> st) named in
  let hostname_hints = List.map (fun (h, hint, _) -> (h, hint)) named in
  ({ r with Router.hostnames }, Some { t with Truth.stale; hostname_hints })

(* which operator and site a named router belongs to, via the suffix of
   its first hostname and its ground-truth city. Customer routers named
   under the provider's suffix resolve to the provider's site. *)
let resolve op_of (r : Router.t) answer =
  match (answer, r.Router.hostnames) with
  | Some (t : Truth.router), h :: _ -> (
      match Hoiho_psl.Psl.registered_suffix h with
      | None -> None
      | Some suffix -> (
          match Hashtbl.find_opt op_of suffix with
          | None -> None
          | Some op -> (
              match
                List.find_opt
                  (fun (s : Oper.site) -> City.key s.Oper.city = t.Truth.city_key)
                  op.Oper.sites
              with
              | Some site -> Some (op, site, t)
              | None -> None)))
  | _ -> None

let epoch config (ds, truth) =
  let rng = Prng.create config.seed in
  let mig_rng = Prng.split rng in
  let host_rng = Prng.split rng in
  let add_rng = Prng.split rng in
  let db = Truth.db truth in
  (* convention migration is fleet-wide: every router of a migrated
     operator re-renders under the new templates *)
  let migrated = Hashtbl.create 8 in
  let ops =
    List.map
      (fun (op : Oper.t) ->
        if Prng.float mig_rng 1.0 < config.p_migrate then begin
          Hashtbl.replace migrated op.Oper.suffix ();
          Oper.migrate mig_rng op
        end
        else op)
      (Truth.ops truth)
  in
  let op_of = Hashtbl.create (List.length ops) in
  List.iter (fun (op : Oper.t) -> Hashtbl.replace op_of op.Oper.suffix op) ops;
  let removed = Hashtbl.create 16 in
  (* each router of the next epoch with its answer key, read from
     [truth] and never written into it *)
  let survivors =
    List.filter_map
      (fun (r : Router.t) ->
        let answer = Truth.router truth r.Router.id in
        match resolve op_of r answer with
        | None -> Some (r, answer) (* unnamed or unresolvable: carried over as-is *)
        | Some (op, site, t) ->
            if Prng.float host_rng 1.0 < config.p_remove then begin
              Hashtbl.replace removed r.Router.id ();
              None
            end
            else if Hashtbl.mem migrated op.Oper.suffix then
              Some (rerender host_rng op site (r, t))
            else if t.Truth.stale && Prng.float host_rng 1.0 < config.p_decay then
              (* stale-name decay: the leftover name from a previous
                 deployment finally gets corrected *)
              Some (rerender host_rng { op with Oper.p_stale = 0.0 } site (r, t))
            else if Prng.float host_rng 1.0 < config.p_renumber then
              Some (rerender host_rng op site (r, t))
            else Some (r, answer))
      (Array.to_list ds.Dataset.routers)
  in
  (* site growth: new routers appended at the end of the corpus with
     fresh ids — Delta.events_between then round-trips the epoch's
     router order exactly *)
  let max_id =
    Array.fold_left
      (fun acc (r : Router.t) -> max acc r.Router.id)
      (-1) ds.Dataset.routers
  in
  let next_id = ref (max_id + 1) in
  let additions =
    List.concat_map
      (fun (op : Oper.t) ->
        List.filter_map
          (fun (site : Oper.site) ->
            if Prng.float add_rng 1.0 < config.p_add then begin
              let id = !next_id in
              incr next_id;
              let r, t = Generate.fresh_router add_rng ds.Dataset.vps ~id op site in
              Some (r, Some t)
            end
            else None)
          op.Oper.sites)
      ops
  in
  let next = survivors @ additions in
  let routers = Array.of_list (List.map fst next) in
  let links =
    Array.of_list
      (List.filter
         (fun (a, b) ->
           not (Hashtbl.mem removed a || Hashtbl.mem removed b))
         (Array.to_list ds.Dataset.links))
  in
  ( Dataset.make ~links ~label:ds.Dataset.label ~routers ~vps:ds.Dataset.vps (),
    Truth.make ~db ops
      (List.filter_map
         (fun ((r : Router.t), t) -> Option.map (fun t -> (r.Router.id, t)) t)
         next) )
