module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Json = Hoiho_util.Json
module Obs = Hoiho_obs.Obs
module Trace = Hoiho_obs.Trace

(* relearn observability: all four counters are deterministic functions
   of (prior corpus, event stream) — the same stream dirties the same
   suffixes and relearns the same groups at any [jobs] setting — so the
   equivalence tests can assert on them. Only the duration histogram is
   wall-clock. *)
let c_events = Obs.counter "relearn.events"
let c_dirty = Obs.counter "relearn.dirty_suffixes"
let c_relearned = Obs.counter "relearn.groups_relearned"
let c_reused = Obs.counter "relearn.groups_reused"
let h_run = Obs.histogram "relearn.run_ms"

type event =
  | Upsert of Router.t
  | Remove of int
  | Add_hostname of { router : int; hostname : string }
  | Remove_hostname of { router : int; hostname : string }
  | Set_hostnames of { router : int; hostnames : string list }
  | Set_rtts of {
      router : int;
      ping : Rtts.t;
      trace : Rtts.t;
    }

type error = Unknown_router of { event : int; id : int }

let error_to_string = function
  | Unknown_router { event; id } ->
      Printf.sprintf "event %d: unknown router id %d" event id

type stats = {
  events : int;
  dirty : string list;
  groups_relearned : int;
  groups_reused : int;
}

exception Err of error

(* The dirty set is conservative on purpose: a touched router marks the
   registered suffixes of its hostnames both before and after the
   change, so a hostname moving between suffixes dirties the group it
   left as well as the one it joined. Structural no-ops (an event that
   leaves the router bit-identical) mark nothing — replaying the same
   observation must not trigger a relearn. *)
let apply (ds : Dataset.t) events =
  let tbl = Hashtbl.create (Array.length ds.Dataset.routers) in
  Array.iter (fun (r : Router.t) -> Hashtbl.replace tbl r.Router.id r)
    ds.Dataset.routers;
  (* the order is built once, after the last event: the original ids
     never removed, in place, then the new ones by their last append. A
     removed id that comes back is new again. *)
  let removed = Hashtbl.create 16 and appended = Hashtbl.create 16 in
  let n_appended = ref 0 in
  let dirty = Hashtbl.create 16 in
  let mark (r : Router.t) =
    List.iter (fun s -> Hashtbl.replace dirty s ()) (Router.suffixes r)
  in
  let get i id =
    match Hashtbl.find_opt tbl id with
    | Some r -> r
    | None -> raise (Err (Unknown_router { event = i; id }))
  in
  (* replace-in-place for an existing id; a structural no-op neither
     rewrites the table nor dirties anything *)
  let update (old : Router.t) (r : Router.t) =
    if old <> r then begin
      mark old;
      mark r;
      Hashtbl.replace tbl r.Router.id r
    end
  in
  let step i = function
    | Upsert r -> (
        match Hashtbl.find_opt tbl r.Router.id with
        | Some old -> update old r
        | None ->
            mark r;
            Hashtbl.replace tbl r.Router.id r;
            Hashtbl.replace appended r.Router.id !n_appended;
            incr n_appended)
    | Remove id ->
        let old = get i id in
        mark old;
        Hashtbl.remove tbl id;
        Hashtbl.replace removed id ();
        Hashtbl.remove appended id
    | Add_hostname { router; hostname } ->
        let old = get i router in
        if not (List.mem hostname old.Router.hostnames) then
          update old
            { old with Router.hostnames = old.Router.hostnames @ [ hostname ] }
    | Remove_hostname { router; hostname } ->
        let old = get i router in
        if List.mem hostname old.Router.hostnames then
          update old
            {
              old with
              Router.hostnames =
                List.filter (fun h -> h <> hostname) old.Router.hostnames;
            }
    | Set_hostnames { router; hostnames } ->
        let old = get i router in
        update old { old with Router.hostnames = hostnames }
    | Set_rtts { router; ping; trace } ->
        let old = get i router in
        update old { old with Router.ping_rtts = ping; Router.trace_rtts = trace }
  in
  match List.iteri step events with
  | () ->
      let kept =
        List.filter_map
          (fun (r : Router.t) ->
            if Hashtbl.mem removed r.Router.id then None
            else Some (Hashtbl.find tbl r.Router.id))
          (Array.to_list ds.Dataset.routers)
      in
      let added =
        Hashtbl.fold (fun id k acc -> (k, id) :: acc) appended []
        |> List.sort compare
        |> List.map (fun (_, id) -> Hashtbl.find tbl id)
      in
      let routers = Array.of_list (kept @ added) in
      let links =
        Array.of_list
          (List.filter
             (fun (a, b) -> Hashtbl.mem tbl a && Hashtbl.mem tbl b)
             (Array.to_list ds.Dataset.links))
      in
      let ds' =
        Dataset.make ~links ~label:ds.Dataset.label ~routers ~vps:ds.Dataset.vps
          ()
      in
      let dirty = List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) dirty []) in
      Ok (ds', dirty)
  | exception Err e -> Error e

(* Diff two corpora into an event stream that [apply old] replays into
   [new]: removals first (old array order), then per new-array-order a
   minimal event for each changed router — [Set_hostnames]/[Set_rtts]
   when only that field moved, a full [Upsert] otherwise. When new
   routers appear at the end of the array (the netsim Evolve contract),
   replaying reproduces the new router order exactly. *)
let events_between (old_ds : Dataset.t) (new_ds : Dataset.t) =
  let old_tbl = Hashtbl.create (Array.length old_ds.Dataset.routers) in
  Array.iter (fun (r : Router.t) -> Hashtbl.replace old_tbl r.Router.id r)
    old_ds.Dataset.routers;
  let new_tbl = Hashtbl.create (Array.length new_ds.Dataset.routers) in
  Array.iter (fun (r : Router.t) -> Hashtbl.replace new_tbl r.Router.id r)
    new_ds.Dataset.routers;
  let removes =
    List.filter_map
      (fun (r : Router.t) ->
        if Hashtbl.mem new_tbl r.Router.id then None else Some (Remove r.Router.id))
      (Array.to_list old_ds.Dataset.routers)
  in
  let changes =
    List.filter_map
      (fun (r : Router.t) ->
        match Hashtbl.find_opt old_tbl r.Router.id with
        | None -> Some (Upsert r)
        | Some o when o = r -> None
        | Some o ->
            if { o with Router.hostnames = r.Router.hostnames } = r then
              Some
                (Set_hostnames
                   { router = r.Router.id; hostnames = r.Router.hostnames })
            else if
              {
                o with
                Router.ping_rtts = r.Router.ping_rtts;
                Router.trace_rtts = r.Router.trace_rtts;
              }
              = r
            then
              Some
                (Set_rtts
                   {
                     router = r.Router.id;
                     ping = r.Router.ping_rtts;
                     trace = r.Router.trace_rtts;
                   })
            else Some (Upsert r))
      (Array.to_list new_ds.Dataset.routers)
  in
  removes @ changes

(* ---- wire format ----------------------------------------------------
   A JSON list of objects discriminated by "op". Only observable fields
   travel: an upsert carries hostnames, ASN, and RTTs — never the
   generator's ground truth, which is unavailable at observation time
   by construction (§4 challenge 2). Decoding is strict and total;
   errors name the offending event index. *)

let rtts_to_json rtts =
  Json.List
    (List.map
       (fun (vp, ms) -> Json.List [ Json.Int vp; Json.Float ms ])
       (Rtts.to_list rtts))

let event_to_json = function
  | Upsert r ->
      Json.Obj
        ([
           ("op", Json.String "upsert");
           ("id", Json.Int r.Router.id);
           ( "hostnames",
             Json.List (List.map (fun h -> Json.String h) r.Router.hostnames) );
         ]
        @ (match r.Router.asn with
          | Some a -> [ ("asn", Json.Int a) ]
          | None -> [])
        @ [
            ("ping", rtts_to_json r.Router.ping_rtts);
            ("trace", rtts_to_json r.Router.trace_rtts);
          ])
  | Remove id -> Json.Obj [ ("op", Json.String "remove"); ("id", Json.Int id) ]
  | Add_hostname { router; hostname } ->
      Json.Obj
        [
          ("op", Json.String "add_hostname");
          ("id", Json.Int router);
          ("hostname", Json.String hostname);
        ]
  | Remove_hostname { router; hostname } ->
      Json.Obj
        [
          ("op", Json.String "remove_hostname");
          ("id", Json.Int router);
          ("hostname", Json.String hostname);
        ]
  | Set_hostnames { router; hostnames } ->
      Json.Obj
        [
          ("op", Json.String "set_hostnames");
          ("id", Json.Int router);
          ("hostnames", Json.List (List.map (fun h -> Json.String h) hostnames));
        ]
  | Set_rtts { router; ping; trace } ->
      Json.Obj
        [
          ("op", Json.String "set_rtts");
          ("id", Json.Int router);
          ("ping", rtts_to_json ping);
          ("trace", rtts_to_json trace);
        ]

let events_to_string events =
  Json.to_string (Json.List (List.map event_to_json events))

exception Decode of string

let fail i fmt = Printf.ksprintf (fun m -> raise (Decode (Printf.sprintf "event %d: %s" i m))) fmt

let int_field i name j =
  match Json.member name j with
  | Some (Json.Int n) -> n
  | Some v -> fail i "%s: expected int, got %s" name (Json.kind v)
  | None -> fail i "missing %s" name

let string_field i name j =
  match Json.member name j with
  | Some (Json.String s) -> s
  | Some v -> fail i "%s: expected string, got %s" name (Json.kind v)
  | None -> fail i "missing %s" name

let hostnames_field i name j =
  match Json.member name j with
  | Some (Json.List l) ->
      List.map
        (function
          | Json.String s -> s
          | v -> fail i "%s: expected string, got %s" name (Json.kind v))
        l
  | Some v -> fail i "%s: expected list, got %s" name (Json.kind v)
  | None -> fail i "missing %s" name

let rtts_field i name j =
  match Json.member name j with
  | None -> Rtts.empty
  | Some (Json.List l) -> (
      let pairs =
        List.map
          (function
            | Json.List [ Json.Int vp; Json.Float ms ] -> (vp, ms)
            | Json.List [ Json.Int vp; Json.Int ms ] -> (vp, float_of_int ms)
            | v -> fail i "%s: expected [vp, ms] pair, got %s" name (Json.kind v))
          l
      in
      try Rtts.of_list pairs with Invalid_argument msg -> fail i "%s: %s" name msg)
  | Some v -> fail i "%s: expected list, got %s" name (Json.kind v)

let event_of_json i j =
  match j with
  | Json.Obj _ -> (
      let id () = int_field i "id" j in
      match string_field i "op" j with
      | "upsert" ->
          let asn =
            match Json.member "asn" j with
            | Some (Json.Int a) -> Some a
            | Some v -> fail i "asn: expected int, got %s" (Json.kind v)
            | None -> None
          in
          Upsert
            (Router.make ?asn
               ~hostnames:(hostnames_field i "hostnames" j)
               ~ping_rtts:(rtts_field i "ping" j)
               ~trace_rtts:(rtts_field i "trace" j)
               (id ()))
      | "remove" -> Remove (id ())
      | "add_hostname" ->
          Add_hostname { router = id (); hostname = string_field i "hostname" j }
      | "remove_hostname" ->
          Remove_hostname
            { router = id (); hostname = string_field i "hostname" j }
      | "set_hostnames" ->
          Set_hostnames
            { router = id (); hostnames = hostnames_field i "hostnames" j }
      | "set_rtts" ->
          Set_rtts
            {
              router = id ();
              ping = rtts_field i "ping" j;
              trace = rtts_field i "trace" j;
            }
      | op -> fail i "unknown op %S" op)
  | v -> fail i "expected object, got %s" (Json.kind v)

let events_of_string s =
  match Json.parse s with
  | Error e -> Error ("events: " ^ e)
  | Ok (Json.List items) -> (
      match List.mapi event_of_json items with
      | events -> Ok events
      | exception Decode m -> Error m)
  | Ok v -> Error ("events: expected a list, got " ^ Json.kind v)

(* ---- incremental relearn ------------------------------------------- *)

let bump_counters stats =
  Obs.add c_events stats.events;
  Obs.add c_dirty (List.length stats.dirty);
  Obs.add c_relearned stats.groups_relearned;
  Obs.add c_reused stats.groups_reused

let recompute consist db ?learn_geohints ?min_samples ?jobs todo =
  Trace.with_span "relearn.run"
    ~attrs:[ ("dirty_groups", string_of_int (List.length todo)) ]
  @@ fun () ->
  Obs.time h_run (fun () ->
      Pipeline.run_groups consist db ?learn_geohints ?min_samples ?jobs todo)

let index_results results =
  let tbl = Hashtbl.create (List.length results + 1) in
  List.iter
    (fun (r : Pipeline.suffix_result) ->
      Hashtbl.replace tbl r.Pipeline.suffix r)
    results;
  tbl

let relearn ?learn_geohints ?min_samples ?jobs ~(prior : Pipeline.t) events =
  match apply prior.Pipeline.dataset events with
  | Error e -> Error e
  | Ok (ds, dirty) ->
      let db = prior.Pipeline.db in
      let consist = Consist.create ds in
      let groups = Dataset.by_suffix ds in
      let dirty_set = Hashtbl.create 16 in
      List.iter (fun s -> Hashtbl.replace dirty_set s ()) dirty;
      let prior_by_suffix = index_results prior.Pipeline.results in
      (* a suffix with no prior result cannot be reused; with a
         conservative dirty set this only happens for suffixes the
         events introduced, which are already dirty *)
      let is_dirty s =
        Hashtbl.mem dirty_set s || not (Hashtbl.mem prior_by_suffix s)
      in
      let todo = List.filter (fun (s, _) -> is_dirty s) groups in
      let fresh_by_suffix =
        index_results
          (recompute consist db ?learn_geohints ?min_samples ?jobs todo)
      in
      let results =
        List.map
          (fun (s, _) ->
            if is_dirty s then Hashtbl.find fresh_by_suffix s
            else Hashtbl.find prior_by_suffix s)
          groups
      in
      let stats =
        {
          events = List.length events;
          dirty;
          groups_relearned = List.length todo;
          groups_reused = List.length groups - List.length todo;
        }
      in
      bump_counters stats;
      Ok (Pipeline.make ds consist db results, stats)

let relearn_model ?jobs ~(model : Learned_io.t) ~(corpus : Dataset.t) events =
  match apply corpus events with
  | Error e -> Error e
  | Ok (ds, dirty) ->
      let db = Learned_io.db model in
      let consist = Consist.create ds in
      let groups = Dataset.by_suffix ds in
      let dirty_set = Hashtbl.create 16 in
      List.iter (fun s -> Hashtbl.replace dirty_set s ()) dirty;
      let prior =
        match Apply.index model.Learned_io.suffixes with
        | Ok index -> index
        | Error (_, suffix) ->
            invalid_arg
              (Printf.sprintf "Delta.relearn_model: duplicate suffix model %S"
                 suffix)
      in
      let todo = List.filter (fun (s, _) -> Hashtbl.mem dirty_set s) groups in
      let fresh_by_suffix = index_results (recompute consist db ?jobs todo) in
      (* assemble in by_suffix order — the order of_pipeline would emit
         for a batch learn of the final corpus. A clean suffix absent
         from the model stays absent: the batch learn it came from
         produced no servable NC for it, and its group is unchanged. *)
      let suffixes =
        List.filter_map
          (fun (s, _) ->
            if Hashtbl.mem dirty_set s then
              Pipeline.suffix_model_of_result (Hashtbl.find fresh_by_suffix s)
            else Apply.find prior s)
          groups
      in
      let model' =
        {
          model with
          Learned_io.suffixes;
          (* recomputed from the spliced suffix list, exactly as
             of_pipeline would from a batch learn of the final corpus —
             pure arithmetic in list order, so the byte-identity
             contract extends to the stored profile *)
          Learned_io.calibration =
            Some
              (Confidence.expected_profile
                 (List.map
                    (fun (sm : Learned_io.suffix_model) -> sm.Learned_io.stats)
                    suffixes));
          Learned_io.metrics = Json.Obj [];
        }
      in
      let stats =
        {
          events = List.length events;
          dirty;
          groups_relearned = List.length todo;
          groups_reused = List.length groups - List.length todo;
        }
      in
      bump_counters stats;
      Ok (model', ds, stats)
