module Pipeline = Hoiho.Pipeline
module Ncsel = Hoiho.Ncsel
module Consist = Hoiho.Consist
module Learned = Hoiho.Learned

let tc = Helpers.tc
let db = Helpers.db

let run_fixture sites =
  let ds, routers, _ = Helpers.suffix_fixture sites in
  let consist = Consist.create ds in
  Pipeline.run_suffix consist db ~suffix:"example.net" routers

let good_sites =
  [
    (Helpers.city "london" "gb", "lhr", 3);
    (Helpers.city "frankfurt" "de", "fra", 3);
    (Helpers.city_st "seattle" "us" "wa", "sea", 3);
    (Helpers.city_st "chicago" "us" "il", "ord", 3);
  ]

let test_good_classification () =
  let r = run_fixture good_sites in
  Alcotest.(check bool) "classified" true (r.Pipeline.classification = Some Ncsel.Good);
  Alcotest.(check bool) "usable" true (Pipeline.usable r);
  match r.Pipeline.nc with
  | Some nc ->
      Alcotest.(check bool) "unique hints >= 3" true (nc.Ncsel.unique_hints >= 3);
      Alcotest.(check bool) "high ppv" true (Hoiho.Evalx.ppv nc.Ncsel.counts >= 0.9)
  | None -> Alcotest.fail "no NC"

let test_poor_single_site () =
  let r = run_fixture [ (Helpers.city "london" "gb", "lhr", 3) ] in
  Alcotest.(check bool) "poor (one unique hint)" true
    (r.Pipeline.classification = Some Ncsel.Poor);
  Alcotest.(check bool) "not usable" false (Pipeline.usable r)

let test_no_geohints () =
  let vps = Helpers.std_vps () in
  let lon = Helpers.city "london" "gb" in
  let routers =
    [ Helpers.router ~id:0 ~at:lon ~vps ~hostnames:[ "stcq1.vpnx.example.net" ] () ]
  in
  let consist = Consist.create (Helpers.dataset routers vps) in
  let r = Pipeline.run_suffix consist db ~suffix:"example.net" routers in
  Alcotest.(check int) "nothing tagged" 0 r.Pipeline.n_tagged;
  Alcotest.(check bool) "no NC" true (r.Pipeline.nc = None);
  Alcotest.(check bool) "no classification" true (r.Pipeline.classification = None)

let test_counters () =
  let r = run_fixture good_sites in
  Alcotest.(check int) "routers" 12 r.Pipeline.n_routers;
  Alcotest.(check int) "hostnames (2 per router)" 24 r.Pipeline.n_samples;
  Alcotest.(check int) "all tagged" 24 r.Pipeline.n_tagged;
  Alcotest.(check int) "tagged routers" 12 r.Pipeline.n_tagged_routers

let test_full_run_and_geolocate () =
  let ds, routers, vps = Helpers.suffix_fixture good_sites in
  ignore routers;
  ignore vps;
  let p = Pipeline.run ds in
  Alcotest.(check int) "one suffix" 1 (List.length p.Pipeline.results);
  (match Pipeline.geolocate p "te9-9.cr2.lhr7.example.net" with
  | Some city -> Alcotest.(check string) "london" "london" city.Hoiho_geodb.City.name
  | None -> Alcotest.fail "geolocate failed");
  (* regression: DNS is case-insensitive, so an uppercase answer must
     geolocate exactly like its lowercase form (the suffix lookup used
     to lowercase while the regexes ran on the raw string) *)
  (match Pipeline.geolocate p "TE9-9.CR2.LHR7.EXAMPLE.NET" with
  | Some city ->
      Alcotest.(check string) "mixed case" "london" city.Hoiho_geodb.City.name
  | None -> Alcotest.fail "mixed-case geolocate failed");
  (* regression: uppercase AND trailing root dot AND embedded
     whitespace at once — normalization must land on the canonical
     form before both the suffix lookup and the regex run *)
  (match Pipeline.geolocate p " TE9-9.CR2. LHR7.Example.Net.\t" with
  | Some city ->
      Alcotest.(check string) "dirty PTR form" "london" city.Hoiho_geodb.City.name
  | None -> Alcotest.fail "dirty-form geolocate failed");
  (* malformed inputs decline, never raise *)
  List.iter
    (fun h ->
      Alcotest.(check bool) (String.escaped h ^ " declines") true
        (Pipeline.geolocate p h = None))
    [ ""; "."; "..."; "\x00\x01.example.net"; String.make 2000 'a' ^ ".example.net" ];
  Alcotest.(check bool) "unknown suffix" true
    (Pipeline.geolocate p "r1.lhr1.unknown.org" = None)

let test_geolocated_routers () =
  let ds, _, _ = Helpers.suffix_fixture good_sites in
  let p = Pipeline.run ds in
  match p.Pipeline.results with
  | [ r ] ->
      Alcotest.(check int) "all routers geolocated" 12 (Pipeline.geolocated_routers p r)
  | _ -> Alcotest.fail "expected one suffix"

let test_learning_toggle () =
  (* with a custom code, learning on vs off changes the learned table *)
  let sites = good_sites @ [ (Helpers.city_st "ashburn" "us" "va", "ash", 4) ] in
  let ds, routers, _ = Helpers.suffix_fixture sites in
  let consist = Consist.create ds in
  let on = Pipeline.run_suffix consist db ~suffix:"example.net" routers in
  let off =
    Pipeline.run_suffix consist db ~learn_geohints:false ~suffix:"example.net" routers
  in
  Alcotest.(check bool) "learning on learns ash" true
    (Learned.find on.Pipeline.learned Hoiho.Plan.Iata "ash" <> None);
  Alcotest.(check int) "learning off learns nothing" 0 (Learned.size off.Pipeline.learned);
  (* and the NC with learning has at least as many TPs *)
  match (on.Pipeline.nc, off.Pipeline.nc) with
  | Some nc_on, Some nc_off ->
      Alcotest.(check bool) "learning does not lose TPs" true
        (nc_on.Ncsel.counts.Hoiho.Evalx.tp >= nc_off.Ncsel.counts.Hoiho.Evalx.tp)
  | _ -> Alcotest.fail "expected NCs in both runs"

let test_find () =
  let ds, _, _ = Helpers.suffix_fixture good_sites in
  let p = Pipeline.run ds in
  Alcotest.(check bool) "find hit" true (Pipeline.find p "example.net" <> None);
  Alcotest.(check bool) "find miss" true (Pipeline.find p "other.net" = None)

module Obs = Hoiho_obs.Obs

let work_counters (s : Obs.snapshot) =
  (* pool.* counters are scheduling-dependent (a jobs=1 run never
     touches the pool); everything else counts work and must be
     identical across jobs settings *)
  List.filter
    (fun (name, _) -> not (String.length name >= 5 && String.sub name 0 5 = "pool."))
    s.Obs.counters

let test_metrics_determinism () =
  let config = Hoiho_netsim.Presets.tiny ~seed:777 () in
  let ds, truth = Hoiho_netsim.Generate.generate config in
  let gdb = Hoiho_netsim.Truth.db truth in
  Obs.reset ();
  let seq = Pipeline.run ~db:gdb ~jobs:1 ds in
  Obs.reset ();
  let par = Pipeline.run ~db:gdb ~jobs:4 ds in
  Alcotest.(check (list (pair string int)))
    "work counters identical for jobs=1 and jobs=4"
    (work_counters seq.Pipeline.metrics)
    (work_counters par.Pipeline.metrics);
  (* the snapshot carried by the run is non-trivial *)
  let nonzero name =
    match Obs.find_counter par.Pipeline.metrics name with
    | Some n when n > 0 -> ()
    | other ->
        Alcotest.failf "expected nonzero %s, got %s" name
          (match other with Some n -> string_of_int n | None -> "<absent>")
  in
  nonzero "rx.exec_calls";
  nonzero "pipeline.suffix_groups";
  nonzero "ncsel.candidates_evaluated";
  (match Obs.find_histogram par.Pipeline.metrics "pipeline.suffix_ms" with
  | Some h ->
      let groups =
        Option.value ~default:0
          (Obs.find_counter par.Pipeline.metrics "pipeline.suffix_groups")
      in
      Alcotest.(check int) "one span per suffix group" groups h.Hoiho_obs.Histo.n
  | None -> Alcotest.fail "pipeline.suffix_ms histogram missing")

let test_clean_run_not_degraded () =
  (* the degraded channel is strictly additive: a clean run marks no
     suffix degraded and counts zero in pipeline.suffix_degraded *)
  Obs.reset ();
  let r = run_fixture good_sites in
  Alcotest.(check bool) "degraded is None" true (r.Pipeline.degraded = None);
  Alcotest.(check int) "counter zero" 0
    (Option.value ~default:(-1)
       (Obs.find_counter (Obs.snapshot ()) "pipeline.suffix_degraded"))

let test_parallel_determinism () =
  (* the full pipeline over a many-suffix dataset must produce the same
     results bit-for-bit whether run sequentially or on a domain pool *)
  let config = Hoiho_netsim.Presets.tiny ~seed:4242 () in
  let ds, truth = Hoiho_netsim.Generate.generate config in
  let gdb = Hoiho_netsim.Truth.db truth in
  let seq = Pipeline.run ~db:gdb ~jobs:1 ds in
  let par = Pipeline.run ~db:gdb ~jobs:4 ds in
  Alcotest.(check bool) "several suffixes exercised" true
    (List.length seq.Pipeline.results > 1);
  Alcotest.(check bool) "jobs=1 and jobs=4 results identical" true
    (seq.Pipeline.results = par.Pipeline.results)

let suites =
  [
    ( "pipeline",
      [
        tc "good classification" test_good_classification;
        tc "poor single site" test_poor_single_site;
        tc "no geohints" test_no_geohints;
        tc "counters" test_counters;
        tc "full run and geolocate" test_full_run_and_geolocate;
        tc "geolocated routers" test_geolocated_routers;
        tc "learning toggle" test_learning_toggle;
        tc "find" test_find;
        tc "parallel determinism" test_parallel_determinism;
        tc "metrics determinism" test_metrics_determinism;
        tc "clean run not degraded" test_clean_run_not_degraded;
      ] );
  ]
