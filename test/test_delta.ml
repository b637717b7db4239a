(* Incremental relearn (Hoiho.Delta) and model diffs (Hoiho.Model_diff).

   The load-bearing property is the jobs-invariant equivalence
   guarantee (DESIGN.md §12): for any event stream, relearning only
   the dirty suffix groups over the prior snapshot
   (Delta.relearn_model) produces a model whose metrics-normalized
   Learned_io encoding is byte-identical to a from-scratch batch learn
   of the final corpus — at jobs 1 and at jobs 4, with identical stats,
   and also when the stream is relearned in two chained steps, the way
   the daemon chains POST /observe. A 500-case qcheck property holds
   this over seeded random event streams; its second step runs on the
   suffix groups the first step's relearn carried over with the corpus
   it returned. The table-driven cases pin the conservative dirty-set
   contract, corpus order preservation, the regrouping of carried
   groups, the wire codec, and the serving-side negative-cache
   invalidation that makes the incremental swap sound. *)

module Delta = Hoiho.Delta
module Pipeline = Hoiho.Pipeline
module Learned_io = Hoiho.Learned_io
module Model_diff = Hoiho.Model_diff
module Serve = Hoiho_serve.Serve
module Json = Hoiho_util.Json
module Prng = Hoiho_util.Prng
module Obs = Hoiho_obs.Obs
module Router = Hoiho_itdk.Router
module Dataset = Hoiho_itdk.Dataset
module Generate = Hoiho_netsim.Generate
module Truth = Hoiho_netsim.Truth

(* --- fixture: a small but multi-operator synthetic corpus --- *)

let small_config =
  {
    Generate.label = "delta";
    seed = 4242;
    n_geo_consistent = 3;
    n_geo_small = 1;
    n_geo_mixed = 1;
    n_multikind = 0;
    n_compound = 0;
    n_nogeo = 2;
    n_extra_towns = 0;
    n_spoofing_vps = 0;
    include_validation = false;
    n_vps = 8;
    hostname_fraction = 0.9;
    p_responsive_unnamed = 0.8;
  }

(* the corpus, its dictionary, and the batch-learned snapshot every
   relearn starts from *)
let fixture =
  lazy
    (let ds, truth = Generate.generate small_config in
     let db = Truth.db truth in
     (ds, db, Learned_io.of_pipeline (Pipeline.run ~db ~jobs:1 ds)))

let normalize m = { m with Learned_io.metrics = Json.Obj [] }
let enc m = Learned_io.encode (normalize m)

let enc_batch db corpus =
  enc (Learned_io.of_pipeline (Pipeline.run ~db ~jobs:1 corpus))

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "relearn failed: %s" (Delta.error_to_string e)

(* --- the property: incremental ≡ batch, at jobs 1 and 4 --- *)

(* A seeded random event stream over the fixture corpus. Ids are
   tracked through the stream so every non-Upsert event names a router
   that is still alive when it is replayed; everything else — cross-
   suffix renames, duplicate adds, RTT refreshes, churn — is fair
   game. *)
let gen_stream seed ds =
  let rng = Prng.create seed in
  let by_id = Hashtbl.create 64 in
  Array.iter
    (fun (r : Router.t) -> Hashtbl.replace by_id r.Router.id r)
    ds.Dataset.routers;
  let live =
    ref
      (Array.to_list
         (Array.map (fun (r : Router.t) -> r.Router.id) ds.Dataset.routers))
  in
  let next_id =
    ref
      (1
      + Array.fold_left
          (fun a (r : Router.t) -> max a r.Router.id)
          0 ds.Dataset.routers)
  in
  let suffixes = Array.of_list (List.map fst (Dataset.by_suffix ds)) in
  let fresh_hostname () =
    Printf.sprintf "probe%d.cr%d.%s" (Prng.int rng 100) (1 + Prng.int rng 3)
      (Prng.pick rng suffixes)
  in
  let upsert_new template =
    let nid = !next_id in
    incr next_id;
    let nr =
      Router.make nid
        ~hostnames:[ fresh_hostname () ]
        ~ping_rtts:template.Router.ping_rtts
        ~trace_rtts:template.Router.trace_rtts
    in
    live := !live @ [ nid ];
    Hashtbl.replace by_id nid nr;
    Delta.Upsert nr
  in
  let n = 1 + Prng.int rng 8 in
  List.init n (fun _ ->
      let id = Prng.pick_list rng !live in
      let r = Hashtbl.find by_id id in
      match Prng.int rng 6 with
      | 0 -> Delta.Add_hostname { router = id; hostname = fresh_hostname () }
      | 1 -> (
          match r.Router.hostnames with
          | [] -> Delta.Add_hostname { router = id; hostname = fresh_hostname () }
          | hs -> Delta.Remove_hostname { router = id; hostname = Prng.pick_list rng hs })
      | 2 ->
          Delta.Set_hostnames
            { router = id; hostnames = [ fresh_hostname (); fresh_hostname () ] }
      | 3 ->
          Delta.Set_rtts
            {
              router = id;
              ping =
                Hoiho_itdk.Rtts.map
                  (fun v ms -> (v, ms +. Prng.float rng 2.0))
                  r.Router.ping_rtts;
              trace = r.Router.trace_rtts;
            }
      | 4 when List.length !live > 1 ->
          live := List.filter (fun x -> x <> id) !live;
          Delta.Remove id
      | _ -> upsert_new r)

let prop_incremental_equals_batch (seed, split) =
  let ds, db, model = Lazy.force fixture in
  let events = gen_stream seed ds in
  (* the wire codec must be the identity on observable events *)
  let events =
    match Delta.events_of_string (Delta.events_to_string events) with
    | Ok decoded ->
        if decoded <> events then
          QCheck.Test.fail_report "wire round-trip changed the events";
        decoded
    | Error msg -> QCheck.Test.fail_reportf "wire decode failed: %s" msg
  in
  let relearn ~jobs ~model ~corpus events =
    match Delta.relearn_model ~jobs ~model ~corpus events with
    | Ok r -> r
    | Error e ->
        QCheck.Test.fail_reportf "relearn failed: %s" (Delta.error_to_string e)
  in
  let m1, corpus, s1 = relearn ~jobs:1 ~model ~corpus:ds events in
  let m4, _, s4 = relearn ~jobs:4 ~model ~corpus:ds events in
  if s1 <> s4 then QCheck.Test.fail_report "stats differ between jobs 1 and 4";
  let eb = enc_batch db corpus in
  let check what m =
    if enc m <> eb then
      QCheck.Test.fail_reportf "%s diverges from batch\nevents: %s" what
        (Delta.events_to_string events)
  in
  check "incremental (jobs 1)" m1;
  check "incremental (jobs 4)" m4;
  (* the same stream in two steps: the first step's model and corpus
     are the second's prior, so the second regroups only what its
     events changed, on the groups the first carried over *)
  let k = split mod (List.length events + 1) in
  let m_mid, corpus_mid, _ =
    relearn ~jobs:2 ~model ~corpus:ds (List.filteri (fun i _ -> i < k) events)
  in
  let m2, corpus2, _ =
    relearn ~jobs:2 ~model:m_mid ~corpus:corpus_mid
      (List.filteri (fun i _ -> i >= k) events)
  in
  if corpus2 <> corpus then
    QCheck.Test.fail_reportf "two-step corpus differs (split at %d)" k;
  check (Printf.sprintf "two-step relearn (split at %d)" k) m2;
  true

let qcheck_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"incremental relearn ≡ batch (jobs 1 and 4, and chained)"
       QCheck.(pair small_nat small_nat)
       prop_incremental_equals_batch)

(* --- the corpus order, against the list code it replaced --- *)

(* [Delta.apply]'s order as it was once computed, one list operation per
   event: a new id appended, a removed id filtered out *)
let reference_apply (ds : Dataset.t) events =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun (r : Router.t) -> Hashtbl.replace tbl r.Router.id r) ds.Dataset.routers;
  let order =
    ref (Array.to_list (Array.map (fun (r : Router.t) -> r.Router.id) ds.Dataset.routers))
  in
  List.iter
    (function
      | Delta.Upsert r ->
          if not (Hashtbl.mem tbl r.Router.id) then order := !order @ [ r.Router.id ];
          Hashtbl.replace tbl r.Router.id r
      | Delta.Remove id ->
          Hashtbl.remove tbl id;
          order := List.filter (fun x -> x <> id) !order
      | Delta.Set_hostnames { router; hostnames } ->
          Hashtbl.replace tbl router { (Hashtbl.find tbl router) with Router.hostnames }
      | _ -> assert false)
    events;
  List.map (Hashtbl.find tbl) !order

(* a corpus of ids [0, n) and a stream over ids [0, n + 4): upserts of
   old and new ids, removals, remove-then-upsert of one id, hostname
   changes; only live ids are removed or renamed *)
let gen_order_case =
  let open QCheck.Gen in
  let* n = int_bound 8 in
  let* ops = list_size (int_bound 24) (pair (int_bound 3) (int_bound (n + 3))) in
  let routers =
    Array.init n (fun id -> Router.make id ~hostnames:[ Printf.sprintf "r%d.example.net" id ])
  in
  let live = Hashtbl.create 16 in
  Array.iter (fun (r : Router.t) -> Hashtbl.replace live r.Router.id ()) routers;
  let upsert k id =
    Hashtbl.replace live id ();
    Delta.Upsert (Router.make id ~hostnames:[ Printf.sprintf "u%d-%d.example.net" k id ])
  in
  let events =
    List.concat
      (List.mapi
         (fun k (op, id) ->
           match op with
           | 0 -> [ upsert k id ]
           | _ when not (Hashtbl.mem live id) -> []
           | 1 ->
               Hashtbl.remove live id;
               [ Delta.Remove id ]
           | 2 -> [ Delta.Remove id; upsert k id ]
           | _ ->
               let hostnames = [ Printf.sprintf "s%d.example.net" k ] in
               [ Delta.Set_hostnames { router = id; hostnames } ])
         ops)
  in
  return (Dataset.make ~label:"order" ~routers ~vps:[||] (), events)

let qcheck_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"apply order ≡ the list reference"
       (QCheck.make
          ~print:(fun ((ds : Dataset.t), events) ->
            Printf.sprintf "%d routers, events %s" (Array.length ds.Dataset.routers)
              (Delta.events_to_string events))
          gen_order_case)
       (fun (ds, events) ->
         match Delta.apply ds events with
         | Ok (ds', _) -> Array.to_list ds'.Dataset.routers = reference_apply ds events
         | Error e -> QCheck.Test.fail_report (Delta.error_to_string e)))

(* --- table-driven dirty-set cases --- *)

let apply_ok ds events =
  match Delta.apply ds events with
  | Ok pair -> pair
  | Error e -> Alcotest.failf "apply failed: %s" (Delta.error_to_string e)

let test_dirty_sets () =
  let ds, routers, _vps = Helpers.iata_fixture () in
  let r0 = List.hd routers in
  let h0 = List.hd r0.Router.hostnames in
  let cases =
    [
      ( "add under the same suffix",
        [ Delta.Add_hostname { router = r0.Router.id; hostname = "x.cr9.lhr9.example.net" } ],
        [ "example.net" ] );
      ( "add under a foreign suffix dirties both",
        [ Delta.Add_hostname { router = r0.Router.id; hostname = "x.cr9.lhr9.other.net" } ],
        [ "example.net"; "other.net" ] );
      ( "remove a router",
        [ Delta.Remove r0.Router.id ],
        [ "example.net" ] );
      ( "rename across suffixes dirties both",
        [ Delta.Set_hostnames { router = r0.Router.id; hostnames = [ "a.cr1.fra1.other.net" ] } ],
        [ "example.net"; "other.net" ] );
      ( "upsert of a new router",
        [ Delta.Upsert (Router.make 9001 ~hostnames:[ "a.cr1.lhr1.fresh.net" ]
                          ~ping_rtts:r0.Router.ping_rtts) ],
        [ "fresh.net" ] );
      ( "duplicate add is a structural no-op",
        [ Delta.Add_hostname { router = r0.Router.id; hostname = h0 } ],
        [] );
      ( "absent remove is a structural no-op",
        [ Delta.Remove_hostname { router = r0.Router.id; hostname = "no.such.name.example.net" } ],
        [] );
      ( "identical rename is a structural no-op",
        [ Delta.Set_hostnames { router = r0.Router.id; hostnames = r0.Router.hostnames } ],
        [] );
      ( "identical rtts are a structural no-op",
        [ Delta.Set_rtts { router = r0.Router.id; ping = r0.Router.ping_rtts;
                           trace = r0.Router.trace_rtts } ],
        [] );
      ( "structurally equal upsert is a no-op",
        [ Delta.Upsert r0 ],
        [] );
      ("an empty stream is a no-op", [], []);
    ]
  in
  List.iter
    (fun (name, events, expected) ->
      let ds', dirty = apply_ok ds events in
      Alcotest.(check (list string)) name expected dirty;
      (* a stream that changes no router returns its input itself *)
      if expected = [] then Alcotest.(check bool) (name ^ ": input returned") true (ds' == ds))
    cases

(* the link array is copied only when a router leaves for good, and
   then without that router's links *)
let test_links_follow_leavers () =
  let ds, _, _ = Lazy.force fixture in
  let a, _ = ds.Dataset.links.(0) in
  let r = Array.find_opt (fun (r : Router.t) -> r.Router.id = a) ds.Dataset.routers |> Option.get in
  let touches (x, y) = x = a || y = a in
  let rtts = Delta.Set_rtts { router = a; ping = Hoiho_itdk.Rtts.empty; trace = r.Router.trace_rtts } in
  let ds', _ = apply_ok ds [ rtts ] in
  Alcotest.(check bool) "no router left: the links are shared" true
    (ds'.Dataset.links == ds.Dataset.links);
  let ds', _ = apply_ok ds [ Delta.Remove a; Delta.Upsert r ] in
  Alcotest.(check bool) "removed and upserted again: the links are shared" true
    (ds'.Dataset.links == ds.Dataset.links);
  let ds', _ = apply_ok ds [ Delta.Remove a ] in
  Alcotest.(check (list (pair int int))) "a router left: its links go, the rest stay"
    (List.filter (fun l -> not (touches l)) (Array.to_list ds.Dataset.links))
    (Array.to_list ds'.Dataset.links)

let test_unknown_router () =
  let ds, routers, _ = Helpers.iata_fixture () in
  let r0 = List.hd routers in
  match
    Delta.apply ds
      [
        Delta.Add_hostname { router = r0.Router.id; hostname = "x.example.net" };
        Delta.Remove 77777;
      ]
  with
  | Ok _ -> Alcotest.fail "unknown router accepted"
  | Error (Delta.Unknown_router { event; id }) ->
      Alcotest.(check int) "offending event index" 1 event;
      Alcotest.(check int) "offending id" 77777 id;
      Alcotest.(check bool) "error text names the id" true
        (let s = Delta.error_to_string (Delta.Unknown_router { event; id }) in
         String.length s > 0)

let test_corpus_order_preserved () =
  let ds, routers, _ = Helpers.iata_fixture () in
  let ids = List.map (fun (r : Router.t) -> r.Router.id) routers in
  let mid = List.nth ids (List.length ids / 2) in
  let r0 = List.hd routers in
  let fresh =
    Router.make 9001 ~hostnames:[ "a.cr1.lhr1.fresh.net" ]
      ~ping_rtts:r0.Router.ping_rtts
  in
  let ds', _ =
    apply_ok ds
      [
        Delta.Remove mid;
        Delta.Upsert fresh;
        Delta.Set_hostnames { router = r0.Router.id; hostnames = [ "b.cr1.lhr1.example.net" ] };
      ]
  in
  let ids' =
    Array.to_list (Array.map (fun (r : Router.t) -> r.Router.id) ds'.Dataset.routers)
  in
  let expected = List.filter (fun i -> i <> mid) ids @ [ 9001 ] in
  Alcotest.(check (list int))
    "removals filter in place, upserts replace in place, new routers append"
    expected ids'

let test_events_between_roundtrip () =
  let ds, routers, _ = Helpers.iata_fixture () in
  let r0 = List.hd routers and r1 = List.nth routers 1 and r2 = List.nth routers 2 in
  let events =
    [
      Delta.Remove r1.Router.id;
      Delta.Set_hostnames { router = r0.Router.id; hostnames = [ "re.cr1.lhr1.example.net" ] };
      Delta.Set_rtts
        { router = r2.Router.id;
          ping = Hoiho_itdk.Rtts.map (fun v ms -> (v, ms +. 0.25)) r2.Router.ping_rtts;
          trace = r2.Router.trace_rtts };
      Delta.Upsert (Router.make 9001 ~hostnames:[ "new.cr1.fra1.example.net" ]
                      ~ping_rtts:r0.Router.ping_rtts);
    ]
  in
  let ds', _ = apply_ok ds events in
  let replayed = Delta.events_between ds ds' in
  (* the inferred stream is minimal: one event per touched router *)
  Alcotest.(check int) "minimal stream" 4 (List.length replayed);
  let ds'', _ = apply_ok ds replayed in
  Alcotest.(check bool) "apply (events_between a b) a reproduces b exactly" true
    (ds' = ds'');
  Alcotest.(check (list Alcotest.string)) "no-op stream between equal corpora"
    [] (List.map (fun _ -> "event") (Delta.events_between ds ds))

let test_wire_rejects_malformed () =
  let expect name input =
    match Delta.events_of_string input with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error msg ->
        Alcotest.(check bool)
          (name ^ ": error names an event or the parse") true
          (String.length msg > 0)
  in
  expect "not json" "nope";
  expect "not a list" "{}";
  expect "unknown op" {|[{"op":"bogus"}]|};
  expect "missing field" {|[{"op":"remove"}]|};
  expect "mistyped field" {|[{"op":"add_hostname","router":"x","hostname":"h"}]|};
  expect "mistyped rtts" {|[{"op":"set_rtts","router":1,"ping":[[1,"fast"]],"trace":[]}]|};
  expect "vp id beyond 32 bits"
    {|[{"op":"set_rtts","router":1,"ping":[[4294967296,1.0]],"trace":[]}]|};
  (* the index in the message points at the offending event *)
  match
    Delta.events_of_string {|[{"op":"remove","id":1},{"op":"bogus"}]|}
  with
  | Ok _ -> Alcotest.fail "second malformed event accepted"
  | Error msg ->
      Alcotest.(check bool) "error names event 1" true
        (let needle = "event 1" in
         let rec contains i =
           i + String.length needle <= String.length msg
           && (String.sub msg i (String.length needle) = needle || contains (i + 1))
         in
         contains 0)

(* an event file over the cap is refused before it is read, naming the
   limit; the file is sparse, so writing it costs one byte *)
let test_load_events_oversized () =
  let path = Filename.temp_file "hoiho_events" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.seek oc (Int64.of_int Delta.max_file_bytes);
          output_char oc ' ');
      match Delta.load_events path with
      | Error msg ->
          Alcotest.(check bool) "error names the size limit" true
            (String.ends_with
               ~suffix:
                 (Printf.sprintf "exceeds the limit of %d for an event stream"
                    Delta.max_file_bytes)
               msg)
      | Ok _ -> Alcotest.fail "an oversized event file loaded")

(* --- relearn stats and counters --- *)

let test_relearn_stats_and_counters () =
  let ds, _db, model = Lazy.force fixture in
  let r0 = ds.Dataset.routers.(0) in
  let suffix =
    match Hoiho_psl.Psl.registered_suffix (List.hd r0.Router.hostnames) with
    | Some s -> s
    | None -> Alcotest.fail "fixture router 0 has no registered suffix"
  in
  let events =
    [ Delta.Add_hostname
        { router = r0.Router.id; hostname = "probe0.cr1." ^ suffix } ]
  in
  Obs.reset ();
  let _, corpus', stats =
    ok_or_fail (Delta.relearn_model ~jobs:1 ~model ~corpus:ds events)
  in
  let n_groups = List.length (Dataset.by_suffix ds) in
  Alcotest.(check int) "events counted" 1 stats.Delta.events;
  Alcotest.(check (list string)) "dirty set" [ suffix ] stats.Delta.dirty;
  Alcotest.(check int) "one group relearned" 1 stats.Delta.groups_relearned;
  Alcotest.(check int) "the rest reused" (n_groups - 1) stats.Delta.groups_reused;
  Alcotest.(check int) "group count unchanged" n_groups
    (List.length (Dataset.by_suffix corpus'));
  let snap = Obs.snapshot () in
  let counter name =
    match Obs.find_counter snap name with
    | Some v -> v
    | None -> Alcotest.failf "counter %s not registered" name
  in
  Alcotest.(check int) "relearn.events" 1 (counter "relearn.events");
  Alcotest.(check int) "relearn.dirty_suffixes" 1 (counter "relearn.dirty_suffixes");
  Alcotest.(check int) "relearn.groups_relearned" 1 (counter "relearn.groups_relearned");
  Alcotest.(check int) "relearn.groups_reused" (n_groups - 1)
    (counter "relearn.groups_reused")

let test_relearn_model_matches_batch () =
  let ds, db, model = Lazy.force fixture in
  let events = gen_stream 7 ds in
  let model', corpus', stats =
    ok_or_fail (Delta.relearn_model ~jobs:1 ~model ~corpus:ds events)
  in
  Alcotest.(check bool) "something was dirty" true (stats.Delta.dirty <> []);
  Alcotest.(check string) "snapshot-level incremental ≡ batch"
    (enc_batch db corpus') (enc model')

(* --- carried groups: relearns chained on the corpus a relearn returned --- *)

(* Each case is relearned in two chained steps, the second on the
   corpus (and so the suffix groups) the first returned, and the final
   model must encode as a batch learn of the final corpus does. *)
let test_chained_regroup () =
  let ds, db, model = Lazy.force fixture in
  let routers = Array.to_list ds.Dataset.routers in
  let suffix_of (r : Router.t) =
    match r.Router.hostnames with
    | h :: _ -> Hoiho_psl.Psl.registered_suffix h
    | [] -> None
  in
  let groups = Dataset.by_suffix ds in
  let first = List.find (fun r -> suffix_of r <> None) routers in
  let first_suffix = Option.get (suffix_of first) in
  (* a group the first named router is not in: its members all come
     later in corpus order *)
  let later, _ = List.find (fun (_, rs) -> not (List.memq first rs)) groups in
  let _, small_members =
    List.fold_left
      (fun (s, rs) (s', rs') -> if List.length rs' < List.length rs then (s', rs') else (s, rs))
      (List.hd groups) groups
  in
  let member = List.hd (List.assoc later groups) in
  let other = List.find (fun (r : Router.t) -> suffix_of r = Some first_suffix && r != first) routers in
  let rtts (r : Router.t) =
    Delta.Set_rtts
      { router = r.Router.id;
        ping = Hoiho_itdk.Rtts.map (fun v ms -> (v, ms +. 0.5)) r.Router.ping_rtts;
        trace = r.Router.trace_rtts }
  in
  let cases =
    [
      ( "an early router renamed into a later group",
        [ rtts other ],
        [ Delta.Set_hostnames
            { router = first.Router.id; hostnames = [ "xe-0.cr1.lhr1." ^ later ] } ] );
      ( "a group member removed, then upserted again",
        [ Delta.Remove member.Router.id ],
        [ Delta.Upsert member ] );
      ( "a dirty group that ends up empty",
        List.map (fun (r : Router.t) -> Delta.Remove r.Router.id) (List.tl small_members),
        [ Delta.Remove (List.hd small_members).Router.id; rtts other ] );
    ]
  in
  List.iter
    (fun (name, step1, step2) ->
      let m1, c1, _ = ok_or_fail (Delta.relearn_model ~jobs:1 ~model ~corpus:ds step1) in
      let m2, c2, stats = ok_or_fail (Delta.relearn_model ~jobs:2 ~model:m1 ~corpus:c1 step2) in
      (* links are not compared: a router that left takes its links
         with it, and one upserted again in a later step comes back
         without them *)
      let c2', _ = apply_ok ds (step1 @ step2) in
      Alcotest.(check bool) (name ^ ": routers as one apply") true
        (c2.Dataset.routers = c2'.Dataset.routers);
      Alcotest.(check string) (name ^ ": incremental ≡ batch") (enc_batch db c2) (enc m2);
      Alcotest.(check int) (name ^ ": every group counted once")
        (List.length (Dataset.by_suffix c2))
        (stats.Delta.groups_relearned + stats.Delta.groups_reused))
    cases

(* A relearn of an empty stream on the corpus a relearn returned
   regroups nothing: it allocates a small fraction of what grouping
   that corpus does. The model uses the default dictionary, which is
   resolved once per process; an embedded one is rebuilt per relearn. *)
let test_empty_relearn_allocates_little () =
  let ds, _, _ = Lazy.force fixture in
  let model = Learned_io.of_pipeline (Pipeline.run ~jobs:1 ds) in
  let r0 = ds.Dataset.routers.(0) in
  let m1, c1, _ =
    ok_or_fail
      (Delta.relearn_model ~jobs:1 ~model ~corpus:ds
         [ Delta.Set_rtts { router = r0.Router.id; ping = Hoiho_itdk.Rtts.empty;
                            trace = r0.Router.trace_rtts } ])
  in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let relearn = words (fun () -> Delta.relearn_model ~jobs:1 ~model:m1 ~corpus:c1 []) in
  let grouping = words (fun () -> Dataset.by_suffix c1) in
  if relearn >= grouping /. 10.0 then
    Alcotest.failf "an empty relearn allocated %.0f words, grouping the corpus %.0f" relearn
      grouping

(* --- satellite 4: negative-cache invalidation on incremental swap --- *)

let test_serve_negative_cache_invalidation () =
  (* epoch 1: only example.net exists; epoch 2 brings newcorp.net *)
  let ds1, _, _ = Helpers.iata_fixture () in
  let ds_new, new_routers, _ =
    Helpers.suffix_fixture ~suffix:"newcorp.net"
      [
        (Helpers.city "london" "gb", "lhr", 3);
        (Helpers.city "frankfurt" "de", "fra", 3);
        (Helpers.city_st "seattle" "us" "wa", "sea", 3);
        (Helpers.city_st "chicago" "us" "il", "ord", 3);
      ]
  in
  ignore ds_new;
  let events =
    List.map
      (fun (r : Router.t) ->
        Delta.Upsert
          (Router.make (r.Router.id + 1000) ~hostnames:r.Router.hostnames
             ~ping_rtts:r.Router.ping_rtts ~trace_rtts:r.Router.trace_rtts
             ?truth:r.Router.truth))
      new_routers
  in
  let p1 = Pipeline.run ~jobs:1 ds1 in
  let m1 = Learned_io.of_pipeline p1 in
  let known =
    (List.hd (List.filter (fun (r : Router.t) -> r.Router.hostnames <> [])
                (Array.to_list ds1.Dataset.routers))).Router.hostnames
    |> List.hd
  in
  let newcorp_host = List.hd (List.hd new_routers).Router.hostnames in
  let t1 = Serve.create m1 in
  (* prime the cache: the epoch-2 name is cached as a miss *)
  Alcotest.(check bool) "epoch-2 hostname unknown under epoch-1 model" true
    ((Serve.geolocate_conf t1 newcorp_host).Serve.city = None);
  let known_answer = (Serve.geolocate_conf t1 known).Serve.city in
  Alcotest.(check bool) "epoch-1 hostname answers" true (known_answer <> None);
  let m2, _corpus2, stats =
    ok_or_fail (Delta.relearn_model ~jobs:1 ~model:m1 ~corpus:ds1 events)
  in
  Alcotest.(check bool) "newcorp.net is dirty" true
    (List.mem "newcorp.net" stats.Delta.dirty);
  Obs.reset ();
  let t2 = Serve.rebuild ~dirty:stats.Delta.dirty t1 m2 in
  Alcotest.(check bool) "stale negative entry evicted" true
    (match Obs.find_counter (Obs.snapshot ()) "serve.cache_invalidated" with
    | Some n -> n >= 1
    | None -> false);
  (* the regression: without invalidation this served the cached None *)
  let served = (Serve.geolocate_conf t2 newcorp_host).Serve.city in
  Alcotest.(check bool) "epoch-2 hostname now answers through the cache" true
    (served <> None
    && served = (Serve.geolocate_uncached_conf t2 newcorp_host).Serve.city);
  Alcotest.(check bool) "clean suffix still answers identically" true
    ((Serve.geolocate_conf t2 known).Serve.city = known_answer)

let suites =
  [
    ( "delta",
      [
        Helpers.tc "conservative dirty sets" test_dirty_sets;
        Helpers.tc "links follow the routers that left" test_links_follow_leavers;
        Helpers.tc "unknown router is a typed error" test_unknown_router;
        Helpers.tc "corpus order is preserved" test_corpus_order_preserved;
        Helpers.tc "events_between round-trips" test_events_between_roundtrip;
        Helpers.tc "wire rejects malformed input" test_wire_rejects_malformed;
        Helpers.tc "load_events refuses an oversized file" test_load_events_oversized;
        Helpers.tc "relearn stats and counters" test_relearn_stats_and_counters;
        Helpers.tc "relearn_model matches batch" test_relearn_model_matches_batch;
        Helpers.tc "chained relearns regroup what changed" test_chained_regroup;
        Helpers.tc "an empty relearn allocates little" test_empty_relearn_allocates_little;
        Helpers.tc "negative cache invalidated on incremental swap"
          test_serve_negative_cache_invalidation;
        qcheck_equivalence;
        qcheck_order;
      ] );
  ]
