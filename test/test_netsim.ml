module Conv = Hoiho_netsim.Conv
module Codes = Hoiho_netsim.Codes
module Oper = Hoiho_netsim.Oper
module Generate = Hoiho_netsim.Generate
module Presets = Hoiho_netsim.Presets
module Truth = Hoiho_netsim.Truth
module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Dataset = Hoiho_itdk.Dataset
module Vp = Hoiho_itdk.Vp
module Lightrtt = Hoiho_geo.Lightrtt
module Prng = Hoiho_util.Prng

let tc = Helpers.tc

(* --- Codes --- *)

let test_abbrev3 () =
  Alcotest.(check string) "tokyo" "tky" (Codes.abbrev3 "tokyo");
  Alcotest.(check string) "ashburn" "ash" (Codes.abbrev3 "ashburn");
  Alcotest.(check string) "short pads" "abx" (Codes.abbrev3 "ab")

let test_abbrev4 () =
  Alcotest.(check string) "milan" "miln" (Codes.abbrev4 "milan");
  Alcotest.(check int) "always 4" 4 (String.length (Codes.abbrev4 "manchester"))

let test_prefix3 () =
  Alcotest.(check string) "toronto" "tor" (Codes.prefix3 "toronto");
  Alcotest.(check string) "multiword" "new" (Codes.prefix3 "new york")

let test_city_abbrev () =
  Alcotest.(check string) "fort collins" "ftcollins" (Codes.city_abbrev "fort collins");
  Alcotest.(check string) "single word" "london" (Codes.city_abbrev "london")

let test_code_for_iata_standard () =
  let rng = Prng.create 1 in
  let lhr = Helpers.city "london" "gb" in
  match Codes.code_for rng Helpers.db Conv.Iata ~p_dev:0.0 lhr with
  | Some (code, custom) ->
      Alcotest.(check string) "primary code" "lon" code;
      Alcotest.(check bool) "not custom" false custom
  | None -> Alcotest.fail "no code"

let test_code_for_iata_custom_when_no_airport () =
  let rng = Prng.create 2 in
  let ash = Helpers.city_st "ashburn" "us" "va" in
  match Codes.code_for rng Helpers.db Conv.Iata ~p_dev:0.0 ash with
  | Some (code, custom) ->
      Alcotest.(check bool) "custom" true custom;
      Alcotest.(check string) "ash abbreviation" "ash" code
  | None -> Alcotest.fail "no code"

let test_code_for_facility_requires_facility () =
  let rng = Prng.create 3 in
  let haarlem = Helpers.city "haarlem" "nl" in
  Alcotest.(check bool) "no facility, no code" true
    (Codes.code_for rng Helpers.db Conv.FacilityAddr ~p_dev:0.0 haarlem = None)

(* --- Conv --- *)

let test_render_substitutes () =
  let rng = Prng.create 4 in
  let template = [ [ Conv.Iface ]; [ Conv.Role "cr" ]; [ Conv.GeoDig ]; [ Conv.Cc ] ] in
  let h = Conv.render rng template ~geo:"lhr" ~cc:"uk" ~state:None "x.net" in
  Alcotest.(check bool) "contains geo" true
    (Hoiho_util.Strutil.is_subsequence ".lhr" h);
  Alcotest.(check bool) "ends with suffix" true
    (Hoiho_util.Strutil.has_suffix ~suffix:".uk.x.net" h)

let test_render_split_clli () =
  let rng = Prng.create 5 in
  let template = [ [ Conv.GeoSplitClli ] ] in
  let h = Conv.render rng template ~geo:"asbnva" ~cc:"us" ~state:None "w.net" in
  Alcotest.(check string) "split with dash" "asbn-va.w.net" h

let test_geo_label_kinds () =
  let has_geo, has_cc, has_state =
    Conv.geo_label_kinds [ [ Conv.Iface ]; [ Conv.GeoDig ]; [ Conv.State ] ]
  in
  Alcotest.(check (triple bool bool bool)) "kinds" (true, false, true)
    (has_geo, has_cc, has_state)

(* --- Oper --- *)

let test_random_geo_shapes () =
  let rng = Prng.create 6 in
  let op = Oper.random_geo rng Helpers.db ~kind:Oper.GeoConsistent in
  Alcotest.(check bool) "has sites" true (List.length op.Oper.sites >= 3);
  Alcotest.(check bool) "has geo kind" true (op.Oper.conv.Conv.hint_kind <> None);
  let small = Oper.random_geo rng Helpers.db ~kind:Oper.GeoSmall in
  Alcotest.(check bool) "small has <=2 sites" true (List.length small.Oper.sites <= 2)

let test_codebook_and_customs () =
  let rng = Prng.create 7 in
  let op = Oper.random_geo rng Helpers.db ~kind:Oper.GeoConsistent in
  let cb = Oper.codebook op in
  Alcotest.(check bool) "codebook covers sites" true
    (List.length cb = List.length op.Oper.sites);
  List.iter
    (fun (code, _) -> Alcotest.(check bool) "codes non-empty" true (code <> ""))
    cb;
  List.iter
    (fun entry ->
      Alcotest.(check bool) "customs are in codebook" true (List.mem entry cb))
    (Oper.customs op)

let test_validation_operators () =
  let rng = Prng.create 8 in
  let ops = Oper.validation rng Helpers.db in
  Alcotest.(check int) "twelve" 12 (List.length ops);
  Alcotest.(check (list string)) "suffixes" Oper.validation_suffixes
    (List.sort compare (List.map (fun (o : Oper.t) -> o.Oper.suffix) ops));
  let he = List.find (fun (o : Oper.t) -> o.Oper.suffix = "he.net") ops in
  Alcotest.(check bool) "he.net uses ash for ashburn" true
    (List.exists
       (fun (s : Oper.site) -> s.Oper.code = "ash" && s.Oper.city.Hoiho_geodb.City.name = "ashburn")
       he.Oper.sites);
  let nys = List.find (fun (o : Oper.t) -> o.Oper.suffix = "nysernet.net") ops in
  Alcotest.(check (float 1e-9)) "nysernet unpingable" 0.0 nys.Oper.p_responsive

let test_render_router_stable_names () =
  let rng = Prng.create 11 in
  let template = [ [ Conv.Iface ]; [ Conv.Role "core" ]; [ Conv.GeoDig ] ] in
  let hostnames =
    Conv.render_router rng template ~geo:"ash" ~cc:"us" ~state:(Some "va")
      ~count:4 "he.net"
  in
  Alcotest.(check int) "four interfaces" 4 (List.length hostnames);
  let name_part h =
    match String.index_opt h '.' with
    | Some i -> String.sub h (i + 1) (String.length h - i - 1)
    | None -> h
  in
  let names = List.sort_uniq compare (List.map name_part hostnames) in
  Alcotest.(check int) "stable router name" 1 (List.length names);
  Alcotest.(check bool) "interfaces differ" true
    (List.length (List.sort_uniq compare hostnames) > 1)

let test_compound_operator () =
  let rng = Prng.create 12 in
  let op = Oper.random_compound rng Helpers.db in
  Alcotest.(check bool) "sites in small towns" true
    (List.for_all
       (fun (s : Oper.site) -> s.Oper.city.Hoiho_geodb.City.population < 500_000)
       op.Oper.sites);
  List.iter
    (fun (s : Oper.site) ->
      Alcotest.(check int) "three-letter ids" 3 (String.length s.Oper.code);
      Alcotest.(check bool) "custom" true s.Oper.custom)
    op.Oper.sites

let test_multikind_operator () =
  let rng = Prng.create 13 in
  let op = Oper.random_multikind rng Helpers.db in
  Alcotest.(check int) "two templates" 2 (List.length op.Oper.conv.Conv.templates);
  Alcotest.(check bool) "sites pinned to templates" true
    (List.for_all (fun (s : Oper.site) -> s.Oper.tpl <> None) op.Oper.sites);
  let tpls = List.sort_uniq compare (List.filter_map (fun (s : Oper.site) -> s.Oper.tpl) op.Oper.sites) in
  Alcotest.(check (list int)) "both templates used" [ 0; 1 ] tpls

(* --- Generate --- *)

let tiny () = Generate.generate (Presets.tiny ())

(* the answer key of every router, in corpus order: a saved corpus
   carries none, so the determinism checks compare it apart *)
let answers ((ds : Dataset.t), truth) =
  Array.map (fun (r : Router.t) -> Truth.router truth r.Router.id) ds.Dataset.routers

let test_generation_deterministic () =
  let g1 = tiny () and g2 = tiny () in
  Alcotest.(check string) "same output" (Hoiho_itdk.Io.to_string (fst g1))
    (Hoiho_itdk.Io.to_string (fst g2));
  Alcotest.(check bool) "same answer key" true (answers g1 = answers g2)

let test_seed_changes_output () =
  let g1 = Generate.generate (Presets.tiny ~seed:1 ()) in
  let g2 = Generate.generate (Presets.tiny ~seed:2 ()) in
  Alcotest.(check bool) "different" false
    (Hoiho_itdk.Io.to_string (fst g1) = Hoiho_itdk.Io.to_string (fst g2));
  Alcotest.(check bool) "different answer keys" false (answers g1 = answers g2)

let test_vps_distinct_cities () =
  let ds, _ = tiny () in
  let keys = Array.to_list ds.Dataset.vps |> List.map (fun (v : Vp.t) -> v.Vp.city_key) in
  Alcotest.(check int) "distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* THE soundness invariant: every simulated RTT admits the true location *)
let test_rtt_soundness () =
  let ds, truth = tiny () in
  let vp id = Array.find_opt (fun (v : Vp.t) -> v.Vp.id = id) ds.Dataset.vps in
  Array.iter
    (fun (r : Router.t) ->
      match Truth.router truth r.Router.id with
      | None -> Alcotest.failf "router %d has no answer key" r.Router.id
      | Some t ->
          List.iter
            (fun (vp_id, rtt) ->
              match vp vp_id with
              | Some v ->
                  Alcotest.(check bool) "ping sound" true
                    (rtt +. 1e-6 >= Lightrtt.min_rtt_ms v.Vp.coord t.Truth.coord)
              | None -> Alcotest.fail "dangling vp id")
            (Rtts.to_list r.Router.ping_rtts @ Rtts.to_list r.Router.trace_rtts))
    ds.Dataset.routers

let test_trace_rtts_exist () =
  let ds, _ = tiny () in
  Array.iter
    (fun (r : Router.t) ->
      Alcotest.(check bool) "every router traceroute-observed" true
        (not (Rtts.is_empty r.Router.trace_rtts)))
    ds.Dataset.routers

let test_hostname_fraction () =
  let ds, _ = tiny () in
  let frac =
    float_of_int (Dataset.n_with_hostname ds) /. float_of_int (Dataset.n_routers ds)
  in
  Alcotest.(check bool) "near target 0.7" true (abs_float (frac -. 0.7) < 0.05)

let test_hostnames_under_operator_suffixes () =
  let ds, truth = tiny () in
  let suffixes =
    List.map (fun (o : Oper.t) -> o.Oper.suffix) (Truth.ops truth)
  in
  Array.iter
    (fun (r : Router.t) ->
      List.iter
        (fun h ->
          match Hoiho_psl.Psl.registered_suffix h with
          | Some s ->
              Alcotest.(check bool) (h ^ " under a known suffix") true
                (List.mem s suffixes)
          | None -> Alcotest.failf "hostname %s has no suffix" h)
        r.Router.hostnames)
    ds.Dataset.routers

let test_truth_lookup () =
  let _, truth = tiny () in
  Alcotest.(check bool) "he.net present" true (Truth.find truth "he.net" <> None);
  Alcotest.(check (option string)) "ash means ashburn" (Some "ashburn|us|va")
    (Truth.code_city truth ~suffix:"he.net" "ash");
  Alcotest.(check bool) "ash is custom" true (Truth.is_custom truth ~suffix:"he.net" "ash");
  Alcotest.(check bool) "geo suffixes nonempty" true (Truth.geo_suffixes truth <> [])

let test_hostname_hints_recorded () =
  let ds, truth = tiny () in
  let some_hint = ref false in
  Array.iter
    (fun (r : Router.t) ->
      match Truth.router truth r.Router.id with
      | Some t ->
          List.iter
            (fun (h, hint) ->
              Alcotest.(check bool) "hint hostname listed" true
                (List.mem h r.Router.hostnames);
              if hint <> None then some_hint := true)
            t.Truth.hostname_hints
      | None -> Alcotest.failf "router %d has no answer key" r.Router.id)
    ds.Dataset.routers;
  Alcotest.(check bool) "at least one embedded hint" true !some_hint

let test_customer_routers () =
  let ds, truth = tiny () in
  let ops = Truth.ops truth in
  let customers = ref 0 in
  Array.iter
    (fun (r : Router.t) ->
      match (r.Router.asn, r.Router.hostnames) with
      | Some asn, [ h ] -> (
          match Hoiho_psl.Psl.registered_suffix h with
          | Some suffix -> (
              match List.find_opt (fun (o : Oper.t) -> o.Oper.suffix = suffix) ops with
              | Some op when op.Oper.asn <> asn ->
                  incr customers;
                  (* the customer hostname embeds the customer's ASN *)
                  Alcotest.(check bool) "asn embedded" true
                    (Hoiho_util.Strutil.is_subsequence
                       (Printf.sprintf "as%d" asn) h)
              | _ -> ())
          | None -> ())
      | _ -> ())
    ds.Dataset.routers;
  Alcotest.(check bool) "customer routers exist" true (!customers > 0)

let test_router_asn_assigned () =
  let ds, truth = tiny () in
  let ops = Truth.ops truth in
  Array.iter
    (fun (r : Router.t) ->
      match r.Router.hostnames with
      | h :: _ -> (
          match Hoiho_psl.Psl.registered_suffix h with
          | Some suffix
            when List.exists (fun (o : Oper.t) -> o.Oper.suffix = suffix) ops ->
              Alcotest.(check bool) "named routers have an ASN" true
                (r.Router.asn <> None)
          | _ -> ())
      | [] -> ())
    ds.Dataset.routers

let test_presets_scale () =
  let c1 = Presets.ipv4_aug20 ~scale:0.1 () in
  let c2 = Presets.ipv4_aug20 () in
  Alcotest.(check bool) "scaled down" true
    (c1.Generate.n_nogeo < c2.Generate.n_nogeo);
  Alcotest.(check int) "four presets" 4 (List.length (Presets.all ()))

let suites =
  [
    ( "netsim.codes",
      [
        tc "abbrev3" test_abbrev3;
        tc "abbrev4" test_abbrev4;
        tc "prefix3" test_prefix3;
        tc "city abbrev" test_city_abbrev;
        tc "iata standard" test_code_for_iata_standard;
        tc "iata custom" test_code_for_iata_custom_when_no_airport;
        tc "facility requires facility" test_code_for_facility_requires_facility;
      ] );
    ( "netsim.conv",
      [
        tc "render substitutes" test_render_substitutes;
        tc "render split clli" test_render_split_clli;
        tc "geo label kinds" test_geo_label_kinds;
        tc "router names stable" test_render_router_stable_names;
      ] );
    ( "netsim.oper",
      [
        tc "random geo shapes" test_random_geo_shapes;
        tc "codebook and customs" test_codebook_and_customs;
        tc "validation operators" test_validation_operators;
        tc "compound operator" test_compound_operator;
        tc "multikind operator" test_multikind_operator;
      ] );
    ( "netsim.generate",
      [
        tc "deterministic" test_generation_deterministic;
        tc "seed changes output" test_seed_changes_output;
        tc "vps distinct" test_vps_distinct_cities;
        tc "rtt soundness" test_rtt_soundness;
        tc "trace rtts exist" test_trace_rtts_exist;
        tc "hostname fraction" test_hostname_fraction;
        tc "hostnames under suffixes" test_hostnames_under_operator_suffixes;
        tc "truth lookup" test_truth_lookup;
        tc "hostname hints recorded" test_hostname_hints_recorded;
        tc "customer routers" test_customer_routers;
        tc "router asn assigned" test_router_asn_assigned;
        tc "presets scale" test_presets_scale;
      ] );
  ]
