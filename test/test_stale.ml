module Stale = Hoiho.Stale
module Consist = Hoiho.Consist
module Pipeline = Hoiho.Pipeline
module Router = Hoiho_itdk.Router

let tc = Helpers.tc
let db = Helpers.db

(* a fixture where one router carries a stale hostname: three interfaces
   say "lhr" (true) and one says "sea" (kept from a previous life) *)
let stale_fixture () =
  let vps = Helpers.std_vps () in
  let lon = Helpers.city "london" "gb" in
  let fra = Helpers.city "frankfurt" "de" in
  let sea = Helpers.city_st "seattle" "us" "wa" in
  let normal id at code n =
    Helpers.router ~id ~at ~vps
      ~hostnames:(List.init n (fun i -> Printf.sprintf "ae%d.cr1.%s%d.example.net" i code (i + 1)))
      ()
  in
  let stale_router =
    Helpers.router ~id:99 ~at:lon ~vps
      ~hostnames:
        [ "ae0.cr1.lhr1.example.net"; "ae1.cr1.lhr1.example.net";
          "ae2.cr1.sea4.example.net" ]
      ()
  in
  let routers =
    [ normal 0 lon "lhr" 2; normal 1 lon "lhr" 2; normal 2 fra "fra" 3;
      normal 3 sea "sea" 3; normal 4 fra "fra" 2; stale_router ]
  in
  let ds = Helpers.dataset routers vps in
  (Consist.create ds, routers, stale_router)

let run_nc () =
  let consist, routers, stale_router = stale_fixture () in
  let result = Pipeline.run_suffix consist db ~suffix:"example.net" routers in
  match result.Pipeline.nc with
  | Some nc -> (nc, stale_router)
  | None -> Alcotest.fail "no NC for fixture"

let test_detects_the_stale_interface () =
  let nc, stale_router = run_nc () in
  let flags = Stale.detect nc in
  Alcotest.(check int) "exactly one flag" 1 (List.length flags);
  let flag = List.hd flags in
  Alcotest.(check string) "the sea hostname" "ae2.cr1.sea4.example.net"
    flag.Stale.hostname;
  Alcotest.(check int) "the right router" stale_router.Router.id
    flag.Stale.router.Router.id;
  match flag.Stale.believed with
  | Some city -> Alcotest.(check string) "believed london" "london" city.Hoiho_geodb.City.name
  | None -> Alcotest.fail "no believed location"

let test_no_false_flags_without_tp_sibling () =
  (* a router whose ONLY hostname is inconsistent gets no flag: it could
     be a provider-edge name, not staleness (figure 3b) *)
  let vps = Helpers.std_vps () in
  let lon = Helpers.city "london" "gb" in
  let fra = Helpers.city "frankfurt" "de" in
  let normal id at code n =
    Helpers.router ~id ~at ~vps
      ~hostnames:(List.init n (fun i -> Printf.sprintf "ae%d.cr1.%s%d.example.net" i code (i + 1)))
      ()
  in
  let lone =
    Helpers.router ~id:50 ~at:lon ~vps ~hostnames:[ "ae9.cr1.sea2.example.net" ] ()
  in
  let routers =
    [ normal 0 lon "lhr" 3; normal 1 fra "fra" 3;
      normal 2 (Helpers.city_st "seattle" "us" "wa") "sea" 3; lone ]
  in
  let consist = Consist.create (Helpers.dataset routers vps) in
  let result = Pipeline.run_suffix consist db ~suffix:"example.net" routers in
  match result.Pipeline.nc with
  | Some nc ->
      Alcotest.(check bool) "lone mismatch not flagged" true
        (List.for_all
           (fun (f : Stale.flag) -> f.Stale.router.Router.id <> 50)
           (Stale.detect nc))
  | None -> Alcotest.fail "no NC"

let test_accuracy_math () =
  let a = { Stale.flagged = 10; true_stale = 8; actual_stale = 16 } in
  Alcotest.(check (float 1e-9)) "precision" 0.8 (Stale.precision a);
  Alcotest.(check (float 1e-9)) "recall" 0.5 (Stale.recall a);
  let zero = { Stale.flagged = 0; true_stale = 0; actual_stale = 0 } in
  Alcotest.(check (float 1e-9)) "zero precision" 0.0 (Stale.precision zero);
  Alcotest.(check (float 1e-9)) "zero recall" 0.0 (Stale.recall zero)

let test_end_to_end_precision () =
  (* on a generated dataset, flags overwhelmingly point at truly stale
     hostnames *)
  let ds, truth = Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ()) in
  let p = Pipeline.run ~db:(Hoiho_netsim.Truth.db truth) ds in
  let a = Hoiho_validate.Analysis.stale_accuracy p truth in
  Alcotest.(check bool) "some flags" true (a.Stale.flagged > 0);
  Alcotest.(check bool) "precision >= 0.8" true (Stale.precision a >= 0.8)

let suites =
  [
    ( "stale",
      [
        tc "detects the stale interface" test_detects_the_stale_interface;
        tc "no false flags without tp sibling" test_no_false_flags_without_tp_sibling;
        tc "accuracy math" test_accuracy_math;
        tc "end to end precision" test_end_to_end_precision;
      ] );
  ]
