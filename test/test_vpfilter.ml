module Vpfilter = Hoiho.Vpfilter
module Generate = Hoiho_netsim.Generate
module Presets = Hoiho_netsim.Presets
module Router = Hoiho_itdk.Router
module Lightrtt = Hoiho_geo.Lightrtt

let tc = Helpers.tc

let spoofed_config n =
  let base = Presets.tiny () in
  { base with Generate.n_spoofing_vps = n }

let test_clean_dataset_no_flags () =
  let ds, _ = Generate.generate (spoofed_config 0) in
  Alcotest.(check (list int)) "no honest VP flagged" [] (Vpfilter.detect ds)

let test_detects_spoofers () =
  let ds, _ = Generate.generate (spoofed_config 3) in
  let flagged = List.sort compare (Vpfilter.detect ds) in
  (* the generator spoofs the first n VP ids *)
  Alcotest.(check (list int)) "exactly the spoofers" [ 0; 1; 2 ] flagged

let test_compatibility_scores_separate () =
  let ds, _ = Generate.generate (spoofed_config 2) in
  let spoofer = Vpfilter.compatibility ds 0 in
  let honest = Vpfilter.compatibility ds 10 in
  Alcotest.(check bool)
    (Printf.sprintf "spoofer %.2f well below honest %.2f" spoofer honest)
    true
    (spoofer < 0.75 && honest > 0.9 && spoofer < honest -. 0.2)

let test_strip_restores_soundness () =
  let ds, truth = Generate.generate (spoofed_config 3) in
  let cleaned = Vpfilter.strip ds (Vpfilter.detect ds) in
  (* after stripping, every remaining RTT admits the true location *)
  Array.iter
    (fun (r : Router.t) ->
      match Hoiho_netsim.Truth.router truth r.Router.id with
      | None -> ()
      | Some t ->
          Hoiho_itdk.Rtts.iter
            (fun vp_id rtt ->
              let vp = Hoiho_itdk.Dataset.vp cleaned vp_id in
              Alcotest.(check bool) "sound after strip" true
                (rtt +. 1e-6
                >= Lightrtt.min_rtt_ms vp.Hoiho_itdk.Vp.coord t.Hoiho_netsim.Truth.coord))
            r.Router.ping_rtts)
    cleaned.Hoiho_itdk.Dataset.routers

let test_filtering_recovers_accuracy () =
  (* spoofed RTTs make stage 2 reject true geohints; filtering recovers
     most of the lost true positives *)
  let ds, truth = Generate.generate (spoofed_config 4) in
  let db = Hoiho_netsim.Truth.db truth in
  let score dataset =
    let p = Hoiho.Pipeline.run ~db dataset in
    let gts =
      Hoiho_validate.Validate.ground_truth_hostnames dataset truth ~suffix:"gtt.net"
    in
    let s =
      Hoiho_validate.Validate.score
        (fun gt -> Hoiho.Pipeline.geolocate p gt.Hoiho_validate.Validate.hostname)
        gts
    in
    Hoiho_validate.Validate.tp_pct s
  in
  let dirty = score ds in
  let clean = score (Vpfilter.strip ds (Vpfilter.detect ds)) in
  Alcotest.(check bool)
    (Printf.sprintf "clean %.0f%% >= dirty %.0f%%" clean dirty)
    true (clean >= dirty);
  Alcotest.(check bool) "clean accuracy high" true (clean > 80.0)

let suites =
  [
    ( "vpfilter",
      [
        tc "clean dataset no flags" test_clean_dataset_no_flags;
        tc "detects spoofers" test_detects_spoofers;
        tc "compatibility separates" test_compatibility_scores_separate;
        tc "strip restores soundness" test_strip_restores_soundness;
        tc "filtering recovers accuracy" test_filtering_recovers_accuracy;
      ] );
  ]
