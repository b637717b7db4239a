(* Span tracing (DESIGN.md §10), all of it through [Trace.collect]:
   nesting and attribute mechanics, the drop-newest contract, a collect
   that sees only its own call, both export formats (Chrome trace-event
   JSON validated by the repo's own strict parser; OpenMetrics text),
   the cross-jobs determinism contract — canonical span trees identical
   at jobs=1 and jobs=4 — and a never-raising [Serve.explain] under the
   same adversarial hostname generator the chaos/props suites use. *)

module Trace = Hoiho_obs.Trace
module Obs = Hoiho_obs.Obs
module Json = Hoiho_util.Json
module Pipeline = Hoiho.Pipeline
module Learned_io = Hoiho.Learned_io
module Serve = Hoiho_serve.Serve

let tc = Helpers.tc

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* the spans [f] opens, in a collector of the call's own *)
let collected f =
  let _, spans, _ = Trace.collect f in
  spans

let find_span name spans =
  match List.find_opt (fun (s : Trace.span) -> s.Trace.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" name

(* --- mechanics --- *)

let test_nesting_and_attrs () =
  let v, spans, dropped =
    Trace.collect (fun () ->
        Trace.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
            Trace.with_span "inner" (fun () ->
                Trace.add_attr "x" "1";
                42)))
  in
  Alcotest.(check int) "with_span is transparent" 42 v;
  Alcotest.(check int) "two spans" 2 (List.length spans);
  Alcotest.(check int) "none dropped" 0 dropped;
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
    spans

let test_disabled_records_nothing () =
  Trace.clear ();
  Alcotest.(check bool) "nothing records" false (Trace.enabled ());
  let v = Trace.with_span "ghost" (fun () -> Trace.add_attr "a" "b"; 7) in
  Alcotest.(check int) "still transparent" 7 v;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans ()))

let test_span_survives_raise () =
  let spans =
    collected (fun () ->
        try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ())
  in
  ignore (find_span "boom" spans)

let test_explicit_parent () =
  let spans =
    collected (fun () ->
        let parent = ref Trace.Root in
        Trace.with_span "root" (fun () -> parent := Trace.fanout_parent ());
        (* simulate a pool domain: no live stack, explicit parent *)
        Trace.with_span ~parent:!parent "child" (fun () -> ()))
  in
  let root = find_span "root" spans and child = find_span "child" spans in
  Alcotest.(check (option int))
    "fanout parent wires the tree" (Some root.Trace.id) child.Trace.parent

(* a collector keeps the first 65536 spans (trace.mli) *)
let capacity = 65536

let test_ring_drops_newest () =
  let (), spans, dropped =
    Trace.collect (fun () ->
        for i = 1 to capacity + 6 do
          Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
        done)
  in
  Alcotest.(check int) "collector holds capacity" capacity (List.length spans);
  Alcotest.(check int) "rest counted as dropped" 6 dropped;
  (* drop-newest: the FIRST completed spans survive, so parents
     (which complete after their children) are the ones at risk —
     and the determinism contract requires dropped = 0 *)
  Alcotest.(check (list string)) "oldest survive" [ "s1"; "s2"; "s3"; "s4" ]
    (List.filteri (fun i _ -> i < 4) (List.map (fun (s : Trace.span) -> s.Trace.name) spans));
  Alcotest.(check string) "the last kept is the capacity-th"
    (Printf.sprintf "s%d" capacity)
    (List.nth spans (capacity - 1)).Trace.name

(* a collect sees only its own call: not a span another domain opens
   meanwhile, not the process-wide collector's, and it neither clears
   nor adds to the process-wide collector *)
let test_collect_is_scoped () =
  Trace.clear ();
  Trace.set_enabled true;
  Trace.with_span "global.before" (fun () -> ());
  let recorded_before = Obs.count (Obs.counter "trace.spans_recorded") in
  let started = Atomic.make false and stop = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Trace.with_span "global.beside" (fun () -> Atomic.set started true)
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let spans =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join other;
        Trace.set_enabled false)
      (fun () ->
        collected (fun () ->
            for _ = 1 to 200 do
              Trace.with_span "mine" (fun () -> ())
            done))
  in
  Alcotest.(check (list string)) "only the call's spans" [ "mine" ]
    (List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.Trace.name) spans));
  Alcotest.(check int) "all of them" 200 (List.length spans);
  let global = Trace.spans () in
  Alcotest.(check bool) "the process-wide span is kept" true
    (List.exists (fun (s : Trace.span) -> s.Trace.name = "global.before") global);
  Alcotest.(check bool) "no collected span leaks into it" false
    (List.exists (fun (s : Trace.span) -> s.Trace.name = "mine") global);
  Alcotest.(check bool) "spans_recorded only grows" true
    (Obs.count (Obs.counter "trace.spans_recorded") >= recorded_before + 200);
  Trace.clear ()

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
  let spans =
    collected (fun () ->
        Trace.with_span "outer" ~attrs:[ ("quote", {|a"b|}); ("ctl", "x\ny\t\xc3\xa9") ]
          (fun () -> Trace.with_span "inner" (fun () -> ())))
  in
  let doc = Trace.to_chrome_json ~epoch_ms:0.0 spans in
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
      | _ -> Alcotest.fail "missing otherData")

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
    let results, spans, dropped = Trace.collect (fun () -> learn jobs) in
    (Trace.canonical spans, dropped, results)
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
  let _, trace = Serve.explain serve h in
  (* the apply spans carry the raw bytes into the JSON export *)
  let _, spans, dropped = Trace.collect (fun () -> Serve.geolocate_uncached_conf serve h) in
  String.length trace >= 0
  && String.length (Trace.to_chrome_json ~epoch_ms:0.0 ~dropped spans) > 0

let suites =
  [
    ( "trace",
      [
        tc "nesting and attrs" test_nesting_and_attrs;
        tc "disabled records nothing" test_disabled_records_nothing;
        tc "span recorded when f raises" test_span_survives_raise;
        tc "explicit fan-out parent" test_explicit_parent;
        tc "ring drops newest, counts drops" test_ring_drops_newest;
        tc "collect is scoped to its call" test_collect_is_scoped;
        tc "subject sampling is deterministic" test_sampling_is_deterministic;
        tc "chrome export parses strictly" test_chrome_json_parses;
        tc "openmetrics exposition shape" test_openmetrics_shape;
        tc "jobs=1 and jobs=4 identical span trees"
          test_canonical_tree_jobs_invariant;
      ] );
    ( "trace.adversarial",
      [ q ~count:300 "explain never raises" adversarial prop_explain_never_raises ] );
  ]
