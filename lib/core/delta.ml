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

let event_id = function
  | Upsert r -> r.Router.id
  | Remove id -> id
  | Add_hostname { router; _ }
  | Remove_hostname { router; _ }
  | Set_hostnames { router; _ }
  | Set_rtts { router; _ } ->
      router

(* What a replay knows besides the final corpus: every id whose router
   an event changed, added or retired, with its final router ([None]
   once it has left). Only these routers can have moved between suffix
   groups, so a relearn regroups them alone. *)
type replay = {
  corpus : Dataset.t;
  dirty : string list;
  changed : (int, Router.t option) Hashtbl.t;
}

(* The new router array, the one allocation proportional to the corpus:
   the old array's runs between the edited positions are blitted, each
   edit ([pos], [Some r] to replace, [None] to drop) is applied, and
   the appended routers follow. *)
let write_routers old edits added =
  let n =
    Array.length old + List.length added
    - List.length (List.filter (fun (_, edit) -> Option.is_none edit) edits)
  in
  if n = 0 then [||]
  else begin
    let out = Array.make n (if Array.length old > 0 then old.(0) else List.hd added) in
    let rec go src dst = function
      | [] ->
          let k = Array.length old - src in
          Array.blit old src out dst k;
          List.iteri (fun i r -> out.(dst + k + i) <- r) added
      | (pos, edit) :: rest -> (
          Array.blit old src out dst (pos - src);
          let dst = dst + pos - src in
          match edit with
          | Some r ->
              out.(dst) <- r;
              go (pos + 1) (dst + 1) rest
          | None -> go (pos + 1) dst rest)
    in
    go 0 0 edits;
    out
  end

(* The dirty set is conservative on purpose: a touched router marks the
   registered suffixes of its hostnames both before and after the
   change, so a hostname moving between suffixes dirties the group it
   left as well as the one it joined. Structural no-ops (an event that
   leaves the router bit-identical) mark nothing — replaying the same
   observation must not trigger a relearn.

   Every table here is sized by the events, not the corpus: one pass
   finds where the routers the events name sit, the events replay over
   those routers alone, and one more pass writes the new array. *)
let replay (ds : Dataset.t) events =
  let routers = ds.Dataset.routers in
  let named = Hashtbl.create 16 in
  List.iter (fun ev -> Hashtbl.replace named (event_id ev) ()) events;
  (* the position of each named router the corpus holds, and by id the
     current router of each one alive *)
  let pos = Hashtbl.create 16 and tbl = Hashtbl.create 16 in
  if Hashtbl.length named > 0 then
    Array.iteri
      (fun i (r : Router.t) ->
        if Hashtbl.mem named r.Router.id then begin
          Hashtbl.replace pos r.Router.id i;
          Hashtbl.replace tbl r.Router.id r
        end)
      routers;
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
  List.iteri step events;
  let changed = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id () ->
      let final = Hashtbl.find_opt tbl id in
      let moved =
        Hashtbl.mem removed id || Hashtbl.mem appended id
        ||
        match (Hashtbl.find_opt pos id, final) with
        | Some i, Some r -> routers.(i) != r
        | _ -> false
      in
      if moved then Hashtbl.replace changed id final)
    named;
  let dirty = List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) dirty []) in
  if Hashtbl.length changed = 0 then { corpus = ds; dirty; changed }
  else begin
    let edits =
      Hashtbl.fold
        (fun id i acc ->
          if Hashtbl.mem removed id then (i, None) :: acc
          else
            match Hashtbl.find_opt changed id with
            | Some final -> (i, final) :: acc
            | None -> acc)
        pos []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    let added =
      Hashtbl.fold (fun id k acc -> (k, id) :: acc) appended []
      |> List.sort compare
      |> List.map (fun (_, id) -> Hashtbl.find tbl id)
    in
    let routers' = write_routers routers edits added in
    (* a removed router takes its links with it, even when a later
       event upserts its id again: an upsert carries no links, so one
       stream and the same events in chained steps agree. Links are
       copied only when a router was removed. *)
    let gone id = Hashtbl.mem removed id in
    let links =
      if Hashtbl.length removed > 0 then
        Array.of_seq
          (Seq.filter
             (fun (a, b) -> not (gone a || gone b))
             (Array.to_seq ds.Dataset.links))
      else ds.Dataset.links
    in
    let corpus =
      Dataset.make ~links ~label:ds.Dataset.label ~routers:routers'
        ~vps:ds.Dataset.vps ()
    in
    { corpus; dirty; changed }
  end

let apply ds events =
  match replay ds events with
  | r -> Ok (r.corpus, r.dirty)
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
   travel: an upsert carries hostnames, ASN, and RTTs, which is all a
   router record holds. Decoding is strict and total; errors name the
   offending event index. *)

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

let ( let* ) = Result.bind

(* [[vp, ms], ...]; Rtts refuses a VP id beyond 32 bits *)
let rtts path json =
  let* pairs = Json.list (Json.pair Json.int Json.number) path json in
  match Rtts.of_list pairs with
  | samples -> Ok samples
  | exception Invalid_argument msg -> Json.fail path ~expected:"32-bit VP ids" ~got:msg

(* each op decodes the fields it carries beside "op" and "id"; absent
   RTTs are no samples *)
let ops =
  [
    ( "upsert",
      fun id path json ->
        let* asn = Json.field_opt "asn" Json.int path json in
        let* hostnames = Json.field "hostnames" (Json.list Json.string) path json in
        let* ping_rtts = Json.field_opt "ping" rtts path json in
        let* trace_rtts = Json.field_opt "trace" rtts path json in
        Ok (Upsert (Router.make ?asn ~hostnames ?ping_rtts ?trace_rtts id)) );
    ("remove", fun id _ _ -> Ok (Remove id));
    ( "add_hostname",
      fun router path json ->
        let* hostname = Json.field "hostname" Json.string path json in
        Ok (Add_hostname { router; hostname }) );
    ( "remove_hostname",
      fun router path json ->
        let* hostname = Json.field "hostname" Json.string path json in
        Ok (Remove_hostname { router; hostname }) );
    ( "set_hostnames",
      fun router path json ->
        let* hostnames = Json.field "hostnames" (Json.list Json.string) path json in
        Ok (Set_hostnames { router; hostnames }) );
    ( "set_rtts",
      fun router path json ->
        let* ping = Json.field_opt "ping" rtts path json in
        let* trace = Json.field_opt "trace" rtts path json in
        let samples = Option.value ~default:Rtts.empty in
        Ok (Set_rtts { router; ping = samples ping; trace = samples trace }) );
  ]

let op = Json.enum (String.concat "|" (List.map fst ops)) (fun op -> List.assoc_opt op ops)

let event path json =
  let* decode = Json.field "op" op path json in
  let* id = Json.field "id" Json.int path json in
  decode id path json

(* each event decodes at its own root, so an error reads
   "event 3: $.hostname: expected string, got int" *)
let events_of_string s =
  match Json.parse s with
  | Error e -> Error ("events: " ^ e)
  | Ok (Json.List items) -> (
      let exception Failed of string in
      match
        List.mapi
          (fun i item ->
            match event Json.root item with
            | Ok ev -> ev
            | Error e ->
                raise_notrace (Failed (Printf.sprintf "event %d: %s" i (Json.error_to_string e))))
          items
      with
      | events -> Ok events
      | exception Failed msg -> Error msg)
  | Ok v -> Error ("events: expected a list, got " ^ Json.kind v)

let max_file_bytes = 512 * 1024 * 1024

let load_events path =
  let* s = Json.read_file ~max_bytes:max_file_bytes ~what:"an event stream" path in
  events_of_string s

(* ---- incremental relearn ------------------------------------------- *)

let bump_counters stats =
  Obs.add c_events stats.events;
  Obs.add c_dirty (List.length stats.dirty);
  Obs.add c_relearned stats.groups_relearned;
  Obs.add c_reused stats.groups_reused

let recompute consist db ?jobs todo =
  Trace.with_span "relearn.run"
    ~attrs:[ ("dirty_groups", string_of_int (List.length todo)) ]
  @@ fun () ->
  Obs.time h_run (fun () -> Pipeline.run_groups consist db ?jobs todo)

let index_results results =
  let tbl = Hashtbl.create (List.length results + 1) in
  List.iter
    (fun (r : Pipeline.suffix_result) ->
      Hashtbl.replace tbl r.Pipeline.suffix r)
    results;
  tbl

module Smap = Map.Make (String)

(* The suffix groups of the corpus [relearn_model] returned last, keyed
   by that corpus's physical identity, as [Consist] keeps the RTT memo
   of the [t] it used last. The value is immutable, so two domains
   relearning one corpus at once each build their own next groups. A
   relearn of that corpus regroups only the routers its events changed;
   any other corpus is grouped from scratch. *)
type carried = { corpus : Dataset.t; groups : Router.t list Smap.t }

let carried : carried option Atomic.t = Atomic.make None

(* The groups of [r.corpus] from those of the corpus it was replayed
   from: a clean group has no changed router in it, before or after,
   so it stays as it is. A dirty group keeps its unchanged members and
   gains the changed routers whose suffixes now name it, in the new
   corpus order, which one pass over the new array gives. *)
let regroup groups (r : replay) =
  if r.dirty = [] then groups
  else begin
    (* id -> the dirty groups the router with that id is in now *)
    let joins = Hashtbl.create 64 in
    let join id s =
      Hashtbl.replace joins id
        (s :: Option.value (Hashtbl.find_opt joins id) ~default:[])
    in
    List.iter
      (fun s ->
        List.iter
          (fun (x : Router.t) ->
            if not (Hashtbl.mem r.changed x.Router.id) then join x.Router.id s)
          (Option.value (Smap.find_opt s groups) ~default:[]))
      r.dirty;
    Hashtbl.iter
      (fun id final ->
        Option.iter (fun x -> List.iter (join id) (Router.suffixes x)) final)
      r.changed;
    (* suffix -> the dirty group's routers, last first *)
    let rev_groups = Hashtbl.create 16 in
    Array.iter
      (fun (x : Router.t) ->
        match Hashtbl.find_opt joins x.Router.id with
        | None -> ()
        | Some ss ->
            List.iter
              (fun s ->
                Hashtbl.replace rev_groups s
                  (x :: Option.value (Hashtbl.find_opt rev_groups s) ~default:[]))
              ss)
      r.corpus.Dataset.routers;
    List.fold_left
      (fun groups s ->
        match Hashtbl.find_opt rev_groups s with
        | Some rev -> Smap.add s (List.rev rev) groups
        | None -> Smap.remove s groups)
      groups r.dirty
  end

let relearn_model ?jobs ~(model : Learned_io.t) ~(corpus : Dataset.t) events =
  match replay corpus events with
  | exception Err e -> Error e
  | r ->
      let groups =
        match Atomic.get carried with
        | Some c when c.corpus == corpus -> regroup c.groups r
        | _ ->
            List.fold_left
              (fun groups (s, routers) -> Smap.add s routers groups)
              Smap.empty (Dataset.by_suffix r.corpus)
      in
      Atomic.set carried (Some { corpus = r.corpus; groups });
      let db = Learned_io.db model in
      let consist = Consist.create r.corpus in
      let prior =
        match Apply.index model.Learned_io.suffixes with
        | Ok index -> index
        | Error (_, suffix) ->
            invalid_arg
              (Printf.sprintf "Delta.relearn_model: duplicate suffix model %S"
                 suffix)
      in
      let todo =
        List.filter_map
          (fun s -> Option.map (fun routers -> (s, routers)) (Smap.find_opt s groups))
          r.dirty
      in
      let fresh = index_results (recompute consist db ?jobs todo) in
      (* assembled in suffix order, the order of_pipeline emits for a
         batch learn of the final corpus. A clean suffix absent from the
         model stays absent: the batch learn it came from produced no
         servable NC for it, and its group is unchanged. *)
      let suffixes =
        List.rev
          (Smap.fold
             (fun s _ acc ->
               let sm =
                 match Hashtbl.find_opt fresh s with
                 | Some res -> Pipeline.suffix_model_of_result res
                 | None -> Apply.find prior s
               in
               match sm with Some sm -> sm :: acc | None -> acc)
             groups [])
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
          dirty = r.dirty;
          groups_relearned = List.length todo;
          groups_reused = Smap.cardinal groups - List.length todo;
        }
      in
      bump_counters stats;
      Ok (model', r.corpus, stats)
