(* Golden-corpus regression suite.

   test/golden/corpus.tsv pins the geolocation answers for a
   deterministic slice of the tiny preset (seed 42): per registered
   suffix, up to two hostnames with the geohint the pipeline extracts
   ("-" when there is none). Any behavior change in normalization,
   suffix classification, regex inference, decode plans or dictionary
   resolution shows up here as a readable per-hostname diff.

   The corpus regenerates deterministically. After an *intended*
   behavior change, refresh it with

     HOIHO_UPDATE_GOLDEN=$PWD/test/golden/corpus.tsv dune runtest

   (the variable names the destination file; the test then rewrites it
   and the next plain run must pass).

   The suite also pins the model lifecycle: the snapshot of the same
   run, pushed through encode/decode and served via Hoiho_serve, must
   answer byte-identically to in-process Pipeline.geolocate on every
   corpus hostname, at jobs=1 and jobs=4, and record the same decision
   trace. *)

module Pipeline = Hoiho.Pipeline
module Learned_io = Hoiho.Learned_io
module Delta = Hoiho.Delta
module Model_diff = Hoiho.Model_diff
module Json = Hoiho_util.Json
module Serve = Hoiho_serve.Serve
module City = Hoiho_geodb.City
module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router
module Psl = Hoiho_psl.Psl
module Evolve = Hoiho_netsim.Evolve
module Truth = Hoiho_netsim.Truth
module Calibration = Hoiho_validate.Calibration
module Trace = Hoiho_obs.Trace

let corpus_path = "golden/corpus.tsv"
let max_per_suffix = 2

let fixture =
  lazy
    (let ds, _truth =
       Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:42 ())
     in
     (ds, Pipeline.run ds))

let describe = function Some c -> City.describe c | None -> "-"

(* one corpus cell: "GEOHINT\tCONF" with the confidence to three
   decimals — the same two-column answer shape the server speaks, so a
   corpus "expected" string (everything after the first tab) is exactly
   a /geolocate response body *)
let render_conf p h =
  let city, conf = Pipeline.geolocate_conf p h in
  Printf.sprintf "%s\t%.3f" (describe city) conf

(* the corpus slice: per suffix in sorted order, the first
   [max_per_suffix] hostnames in sorted order — a pure function of the
   dataset, so regeneration is reproducible *)
let select_hostnames ds =
  Dataset.by_suffix ds
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (suffix, routers) ->
         let hostnames =
           routers
           |> List.concat_map (fun (r : Router.t) -> r.Router.hostnames)
           |> List.filter (fun h -> Psl.registered_suffix h = Some suffix)
           |> List.sort_uniq compare
         in
         (suffix, List.filteri (fun i _ -> i < max_per_suffix) hostnames))

let render ds p =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# Golden corpus: tiny preset, seed 42. \
     hostname<TAB>expected geohint<TAB>confidence.\n";
  Buffer.add_string buf "# Regenerate: see test/test_golden.ml.\n";
  List.iter
    (fun (suffix, hostnames) ->
      if hostnames <> [] then begin
        Buffer.add_string buf (Printf.sprintf "# %s\n" suffix);
        List.iter
          (fun h ->
            Buffer.add_string buf (Printf.sprintf "%s\t%s\n" h (render_conf p h)))
          hostnames
      end)
    (select_hostnames ds);
  Buffer.contents buf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus_lines () =
  read_file corpus_path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun line ->
         match String.index_opt line '\t' with
         | Some i ->
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
         | None -> Alcotest.failf "golden corpus: malformed line %S" line)

(* Where to write a regenerated golden file named [canonical].
   HOIHO_UPDATE_GOLDEN may be "1" (in place, when running from the
   source tree), a directory (every golden file lands there under its
   canonical name), or a file path (that file for its own canonical
   name; siblings land next to it) — so the documented
   HOIHO_UPDATE_GOLDEN=$PWD/test/golden/corpus.tsv refreshes the whole
   set. *)
let golden_dest canonical =
  match Sys.getenv_opt "HOIHO_UPDATE_GOLDEN" with
  | Some dest when dest <> "" ->
      if dest = "1" then Some (Filename.concat "golden" canonical)
      else if Sys.file_exists dest && Sys.is_directory dest then
        Some (Filename.concat dest canonical)
      else if Filename.basename dest = canonical then Some dest
      else Some (Filename.concat (Filename.dirname dest) canonical)
  | _ -> None

let write_golden dest contents =
  let oc = open_out_bin dest in
  output_string oc contents;
  close_out oc;
  Printf.printf "golden file regenerated to %s\n" dest

let test_corpus () =
  match golden_dest "corpus.tsv" with
  | Some dest ->
      let ds, p = Lazy.force fixture in
      write_golden dest (render ds p)
  | None ->
      let ds, p = Lazy.force fixture in
      let pinned = corpus_lines () in
      Alcotest.(check bool) "corpus is non-trivial" true (List.length pinned >= 40);
      (* answer drift: every pinned hostname must still geolocate to the
         pinned geohint *)
      let drift =
        List.filter_map
          (fun (h, expected) ->
            let got = render_conf p h in
            if got = expected then None
            else Some (Printf.sprintf "  %-44s pinned %-28s got %s" h expected got))
          pinned
      in
      if drift <> [] then
        Alcotest.failf
          "golden corpus drift (%d of %d hostnames; if intended, regenerate \
           with HOIHO_UPDATE_GOLDEN — see test/test_golden.ml):\n%s"
          (List.length drift) (List.length pinned)
          (String.concat "\n" drift);
      (* selection drift: the deterministic slice itself must still match
         the file, or the corpus silently stops covering what it claims *)
      let regenerated = render ds p in
      if regenerated <> read_file corpus_path then
        Alcotest.fail
          "golden corpus selection drift: answers match but the regenerated \
           file differs (hostname selection or formatting changed); \
           regenerate with HOIHO_UPDATE_GOLDEN — see test/test_golden.ml"

(* the corpus must exercise both outcomes, or a regression that turns
   every answer into "-" (or resolves garbage everywhere) could pass *)
let test_corpus_covers_both_outcomes () =
  let pinned = corpus_lines () in
  (* "expected" is now "GEOHINT\tCONF"; negative rows are "-\t0.000" *)
  let is_negative e = String.length e >= 2 && String.sub e 0 2 = "-\t" in
  let geo, nogeo = List.partition (fun (_, e) -> not (is_negative e)) pinned in
  Alcotest.(check bool) "has geolocated hostnames" true (List.length geo >= 10);
  Alcotest.(check bool) "has non-geolocated hostnames" true (List.length nogeo >= 5)

let test_snapshot_serves_identically () =
  let _, p = Lazy.force fixture in
  let model =
    match Learned_io.decode (Learned_io.encode (Learned_io.of_pipeline p)) with
    | Ok m -> m
    | Error e ->
        Alcotest.failf "snapshot did not round-trip: %s"
          (Learned_io.error_to_string e)
  in
  let hostnames = List.map fst (corpus_lines ()) in
  let serve jobs =
    Serve.apply_batch ~jobs (Serve.create model) hostnames
  in
  let seq = serve 1 and par = serve 4 in
  Alcotest.(check bool) "jobs=1 and jobs=4 identical" true (seq = par);
  let uncached = Serve.create model in
  let traced f =
    let _, spans, _ = Trace.collect f in
    Trace.canonical spans
  in
  List.iter
    (fun (h, (answer : Serve.answer)) ->
      let expect_city, expect_conf = Pipeline.geolocate_conf p h in
      if answer.Serve.city <> expect_city then
        Alcotest.failf "served answer diverges on %s: served %s, in-process %s" h
          (describe answer.Serve.city) (describe expect_city);
      (* confidences must be byte-identical, not merely close: the serve
         path recomputes the same formula from snapshot-carried stats *)
      if answer.Serve.confidence <> expect_conf then
        Alcotest.failf "served confidence diverges on %s: served %.17g, in-process %.17g"
          h answer.Serve.confidence expect_conf;
      (* one apply path: the same decision trace, span for span *)
      let in_process = traced (fun () -> Pipeline.geolocate_conf p h) in
      let served = traced (fun () -> Serve.geolocate_uncached_conf uncached h) in
      if in_process <> served then
        Alcotest.failf "decision trace diverges on %s:\nin-process %s\nserved %s" h
          in_process served)
    seq

(* --- the drift corpus: one Evolve epoch over the golden fixture ---

   Two pinned artifacts regenerate deterministically from (tiny seed
   42, Evolve seed 1337): golden/drift_events.json — the Delta wire
   stream turning epoch 1 into epoch 2 — and golden/drift.txt — the
   rendered model diff between the two epochs' learned models. Any
   change to the generator, the evolver, the wire codec, the pipeline,
   or the diff renderer shows up as a readable diff against these
   files; refresh them with HOIHO_UPDATE_GOLDEN like the corpus. *)

let drift_events_path = "golden/drift_events.json"
let drift_diff_path = "golden/drift.txt"

let drift_fixture =
  lazy
    (let ds1, truth1 =
       Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:42 ())
     in
     let ds2, truth2 = Evolve.epoch (Evolve.default ~seed:1337) (ds1, truth1) in
     (ds1, ds2, truth2))

let normalize m = { m with Learned_io.metrics = Json.Obj [] }

let test_drift_events () =
  let ds1, ds2, _ = Lazy.force drift_fixture in
  let rendered = Delta.events_to_string (Delta.events_between ds1 ds2) in
  match golden_dest "drift_events.json" with
  | Some dest -> write_golden dest rendered
  | None ->
      let pinned = read_file drift_events_path in
      if rendered <> pinned then
        Alcotest.fail
          "drift event stream drifted from golden/drift_events.json (if \
           intended, regenerate with HOIHO_UPDATE_GOLDEN — see \
           test/test_golden.ml)";
      (* the pinned wire stream must replay: decode, apply, and land
         exactly on epoch 2 *)
      let events =
        match Delta.events_of_string pinned with
        | Ok e -> e
        | Error msg -> Alcotest.failf "pinned drift events do not decode: %s" msg
      in
      Alcotest.(check bool) "drift is non-trivial" true (List.length events >= 10);
      (match Delta.apply ds1 events with
      | Ok (replayed, dirty) ->
          Alcotest.(check bool)
            "replaying the pinned events reproduces epoch 2" true
            (replayed = ds2);
          Alcotest.(check bool) "drift dirties some suffixes" true (dirty <> [])
      | Error e ->
          Alcotest.failf "pinned drift events do not apply: %s"
            (Delta.error_to_string e));
      (* and the incremental relearn across the epoch matches batch *)
      let _, p1 = Lazy.force fixture in
      (match
         Delta.relearn_model ~jobs:4 ~model:(Learned_io.of_pipeline p1)
           ~corpus:p1.Pipeline.dataset events
       with
      | Ok (incr, _, _) ->
          let batch = Pipeline.run ~jobs:4 ds2 in
          Alcotest.(check string)
            "incremental relearn across the drift epoch ≡ batch"
            (Learned_io.encode (normalize (Learned_io.of_pipeline batch)))
            (Learned_io.encode (normalize incr))
      | Error e ->
          Alcotest.failf "incremental relearn across the epoch failed: %s"
            (Delta.error_to_string e))

let test_drift_model_diff () =
  let ds1, ds2, _ = Lazy.force drift_fixture in
  let _, p1 = Lazy.force fixture in
  ignore ds1;
  let m1 = Learned_io.of_pipeline p1 in
  let m2 = Learned_io.of_pipeline (Pipeline.run ~jobs:4 ds2) in
  let rendered = Model_diff.render_text (Model_diff.diff m1 m2) in
  match golden_dest "drift.txt" with
  | Some dest -> write_golden dest rendered
  | None ->
      let pinned = read_file drift_diff_path in
      if rendered <> pinned then
        Alcotest.failf
          "model diff drifted from golden/drift.txt (if intended, regenerate \
           with HOIHO_UPDATE_GOLDEN — see test/test_golden.ml); got:\n%s"
          rendered;
      (* the machine form stays in lockstep with the text form *)
      let d = Model_diff.diff m1 m2 in
      Alcotest.(check bool) "drift changes the model" true
        (List.length d.Model_diff.diffs > 0);
      Alcotest.(check bool) "diff JSON encodes" true
        (String.length (Model_diff.encode d) > 2)

(* Calibration under drift: the reliability table of the epoch-2 model
   against epoch-2 ground truth is pinned — a readable early warning
   when confidence scores decalibrate as the simulated world shifts —
   and the drifted epoch must still clear the acceptance gates the
   fresh model is held to. *)

let calibration_drift_path = "golden/calibration_drift.txt"

let test_drift_calibration () =
  let _, ds2, truth2 = Lazy.force drift_fixture in
  let p2 = Pipeline.run ~db:(Truth.db truth2) ds2 in
  let report =
    Calibration.of_pipeline p2 truth2 ~suffixes:(Truth.geo_suffixes truth2)
  in
  let rendered = Calibration.render_text report in
  match golden_dest "calibration_drift.txt" with
  | Some dest -> write_golden dest rendered
  | None ->
      let pinned = read_file calibration_drift_path in
      if rendered <> pinned then
        Alcotest.failf
          "drift-epoch calibration drifted from \
           golden/calibration_drift.txt (if intended, regenerate with \
           HOIHO_UPDATE_GOLDEN — see test/test_golden.ml); got:\n%s"
          rendered;
      Alcotest.(check bool) "ECE within 0.15 after drift" true
        (report.Calibration.ece <= 0.15);
      Alcotest.(check bool) "decile accuracy monotone after drift" true
        (Calibration.monotone report)

let suites =
  [
    ( "golden",
      [
        Helpers.tc "corpus answers are pinned" test_corpus;
        Helpers.tc "corpus covers both outcomes" test_corpus_covers_both_outcomes;
        Helpers.tc "snapshot serves byte-identically" test_snapshot_serves_identically;
        Helpers.tc "drift event stream is pinned and replays" test_drift_events;
        Helpers.tc "drift model diff is pinned" test_drift_model_diff;
        Helpers.tc "drift-epoch calibration is pinned" test_drift_calibration;
      ] );
  ]
