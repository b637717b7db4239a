(* Span tracing (DESIGN.md §10): nesting and attribute mechanics, the
   drop-newest ring contract, both export formats (Chrome trace-event
   JSON validated by the repo's own strict parser; OpenMetrics text),
   the cross-jobs determinism contract — canonical span trees identical
   at jobs=1 and jobs=4 — and never-raise with tracing ENABLED under
   the same adversarial hostname generator the chaos/props suites use. *)

module Trace = Hoiho_obs.Trace
module Obs = Hoiho_obs.Obs
module Json = Hoiho_util.Json
module Pipeline = Hoiho.Pipeline
module Learned_io = Hoiho.Learned_io
module Serve = Hoiho_serve.Serve

let tc = Helpers.tc

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* scope the process-wide collector to one test case: fresh (optionally
   resized) collector in, disabled and emptied out — tracing must never
   leak into the other suites *)
let with_tracing ?shards ?capacity f =
  Trace.set_enabled false;
  Trace.configure ?shards ?capacity ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.configure ())
    f

let find_span name spans =
  match List.find_opt (fun (s : Trace.span) -> s.Trace.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" name

(* --- mechanics --- *)

let test_nesting_and_attrs () =
  with_tracing (fun () ->
      let v =
        Trace.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
            Trace.with_span "inner" (fun () ->
                Trace.add_attr "x" "1";
                42))
      in
      Alcotest.(check int) "with_span is transparent" 42 v;
      let spans = Trace.spans () in
      Alcotest.(check int) "two spans" 2 (List.length spans);
      let outer = find_span "outer" spans and inner = find_span "inner" spans in
      Alcotest.(check (option int)) "outer is a root" None outer.Trace.parent;
      Alcotest.(check (option int))
        "inner nests under outer" (Some outer.Trace.id) inner.Trace.parent;
      Alcotest.(check (list (pair string string)))
        "outer attrs" [ ("k", "v") ] outer.Trace.attrs;
      Alcotest.(check (list (pair string string)))
        "add_attr lands on innermost" [ ("x", "1") ] inner.Trace.attrs;
      List.iter
        (fun (s : Trace.span) ->
          Alcotest.(check bool)
            "monotonic interval" true
            (Int64.compare s.Trace.t_end_ns s.Trace.t_start_ns >= 0))
        spans)

let test_disabled_records_nothing () =
  Trace.set_enabled false;
  Trace.configure ();
  let v = Trace.with_span "ghost" (fun () -> Trace.add_attr "a" "b"; 7) in
  Alcotest.(check int) "still transparent" 7 v;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans ()))

let test_span_survives_raise () =
  with_tracing (fun () ->
      (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      let _ = find_span "boom" (Trace.spans ()) in
      ())

let test_explicit_parent () =
  with_tracing (fun () ->
      let parent = ref Trace.Root in
      Trace.with_span "root" (fun () -> parent := Trace.fanout_parent ());
      (* simulate a pool domain: no live stack, explicit parent *)
      Trace.with_span ~parent:!parent "child" (fun () -> ());
      let spans = Trace.spans () in
      let root = find_span "root" spans and child = find_span "child" spans in
      Alcotest.(check (option int))
        "fanout parent wires the tree" (Some root.Trace.id) child.Trace.parent)

let test_ring_drops_newest () =
  with_tracing ~shards:1 ~capacity:4 (fun () ->
      for i = 1 to 10 do
        Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
      done;
      let spans = Trace.spans () in
      Alcotest.(check int) "ring holds capacity" 4 (List.length spans);
      Alcotest.(check int) "rest counted as dropped" 6 (Trace.dropped ());
      (* drop-newest: the FIRST completed spans survive, so parents
         (which complete after their children) are the ones at risk —
         and the determinism contract requires dropped = 0 *)
      Alcotest.(check string) "oldest survive" "s1" (find_span "s1" spans).Trace.name)

let test_sampling_is_deterministic () =
  let subjects = List.init 1000 (Printf.sprintf "host%d.example.net") in
  let a = List.map Trace.sampled subjects in
  let b = List.map Trace.sampled subjects in
  Alcotest.(check (list bool)) "same subjects, same picks" a b;
  let picked = List.length (List.filter Fun.id a) in
  Alcotest.(check bool)
    (Printf.sprintf "1-in-64 ballpark (picked %d/1000)" picked)
    true
    (picked > 0 && picked < 100)

(* --- exporters --- *)

let test_chrome_json_parses () =
  with_tracing (fun () ->
      Trace.with_span "outer" ~attrs:[ ("quote", {|a"b|}); ("ctl", "x\ny\t\xc3\xa9") ]
        (fun () -> Trace.with_span "inner" (fun () -> ()));
      let doc = Trace.to_chrome_json ~epoch_ms:0.0 (Trace.spans ()) in
      match Json.parse doc with
      | Error e -> Alcotest.failf "chrome json does not parse: %s" e
      | Ok json ->
          let events =
            match Json.member "traceEvents" json with
            | Some (Json.List evs) -> evs
            | _ -> Alcotest.fail "missing traceEvents list"
          in
          Alcotest.(check int) "one event per span" 2 (List.length events);
          List.iter
            (fun ev ->
              (match Json.member "ph" ev with
              | Some (Json.String "X") -> ()
              | _ -> Alcotest.fail "events must be complete-duration (ph=X)");
              match (Json.member "ts" ev, Json.member "dur" ev) with
              | Some (Json.Float _ | Json.Int _), Some (Json.Float _ | Json.Int _)
                -> ()
              | _ -> Alcotest.fail "ts/dur must be numeric")
            events;
          (match Json.member "otherData" json with
          | Some (Json.Obj _) -> ()
          | _ -> Alcotest.fail "missing otherData"))

let test_openmetrics_shape () =
  Obs.reset ();
  Obs.add (Obs.counter "trace_test.events") 3;
  Obs.observe (Obs.histogram "trace_test.lat_ms") 1.5;
  let text = Obs.to_openmetrics (Obs.snapshot ()) in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter exposed with _total" true
    (has "hoiho_trace_test_events_total 3");
  Alcotest.(check bool) "histogram count" true (has "hoiho_trace_test_lat_ms_count 1");
  Alcotest.(check bool) "quantile samples" true (has "quantile=\"0.95\"");
  Alcotest.(check bool) "p99 quantile row" true (has "quantile=\"0.99\"");
  Alcotest.(check bool) "terminated" true
    (let tl = String.length text in
     tl >= 6 && String.sub text (tl - 6) 6 = "# EOF\n");
  Obs.reset ()

(* --- cross-jobs determinism (the contract in trace.mli) --- *)

let test_canonical_tree_jobs_invariant () =
  let learn jobs =
    let ds, truth =
      Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:7 ())
    in
    (Pipeline.run ~db:(Hoiho_netsim.Truth.db truth) ~jobs ds).Pipeline.results
  in
  let run jobs =
    with_tracing (fun () ->
        let results = learn jobs in
        Trace.set_enabled false;
        let dropped = Trace.dropped () in
        (Trace.canonical (Trace.spans ()), dropped, results))
  in
  let c1, d1, r1 = run 1 in
  let c4, d4, r4 = run 4 in
  (* tracing observes the run; it must not change what is learned *)
  Alcotest.(check bool) "traced results equal untraced at jobs=1" true
    (r1 = learn 1);
  Alcotest.(check bool) "traced results equal untraced at jobs=4" true
    (r4 = learn 4);
  Alcotest.(check int) "no drops at jobs=1" 0 d1;
  Alcotest.(check int) "no drops at jobs=4" 0 d4;
  Alcotest.(check bool) "tree is non-trivial" true (String.length c1 > 1000);
  if c1 <> c4 then
    Alcotest.failf "canonical span trees differ between jobs=1 and jobs=4:\n%s"
      (Printf.sprintf "jobs=1: %d bytes, jobs=4: %d bytes" (String.length c1)
         (String.length c4));
  (* the sched exemption is real: pool.batch spans exist at jobs=4 *)
  Alcotest.(check string) "identical canonical trees" c1 c4

(* --- never-raise with tracing enabled (explain path) --- *)

(* same adversarial shape as props.adversarial: arbitrary bytes,
   half steered into a learned suffix so the traced regex/resolve
   path — not just the PSL bail-out — sees the junk *)
let gen_adversarial =
  QCheck.Gen.(
    map2
      (fun junk tail -> junk ^ tail)
      (string_size
         ~gen:(map Char.chr (int_range 0 255))
         (int_range 0 300))
      (oneofl [ ""; ""; "."; ".."; ".example.net"; ".example.net."; ".EXAMPLE.NET" ]))

let adversarial = QCheck.make ~print:String.escaped gen_adversarial

let explain_fixture =
  lazy
    (let ds, _, _ = Helpers.iata_fixture () in
     Serve.create (Learned_io.of_pipeline (Pipeline.run ds)))

let prop_explain_never_raises h =
  let serve = Lazy.force explain_fixture in
  with_tracing (fun () ->
      match (Serve.geolocate_conf serve h).Serve.city with
      | Some _ | None ->
          (* the full explain path: geolocate, then render the trace *)
          Trace.set_enabled false;
          let spans = Trace.spans () in
          String.length (Trace.render_text spans) >= 0
          && String.length (Trace.to_chrome_json ~epoch_ms:0.0 spans) > 0)

let suites =
  [
    ( "trace",
      [
        tc "nesting and attrs" test_nesting_and_attrs;
        tc "disabled records nothing" test_disabled_records_nothing;
        tc "span recorded when f raises" test_span_survives_raise;
        tc "explicit fan-out parent" test_explicit_parent;
        tc "ring drops newest, counts drops" test_ring_drops_newest;
        tc "subject sampling is deterministic" test_sampling_is_deterministic;
        tc "chrome export parses strictly" test_chrome_json_parses;
        tc "openmetrics exposition shape" test_openmetrics_shape;
        tc "jobs=1 and jobs=4 identical span trees"
          test_canonical_tree_jobs_invariant;
      ] );
    ( "trace.adversarial",
      [ q ~count:300 "explain never raises" adversarial prop_explain_never_raises ] );
  ]
