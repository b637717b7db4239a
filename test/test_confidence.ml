(* Confidence scoring: table-driven units pinning the score formula at
   its signal extremes, plus the determinism contract as properties —
   the confidence of an answer is byte-identical between jobs=1 and
   jobs=4 serving, between serving and in-process pipeline application,
   and across a real socket. *)

module Confidence = Hoiho.Confidence
module Learned = Hoiho.Learned
module Plan = Hoiho.Plan
module Evalx = Hoiho.Evalx
module Pipeline = Hoiho.Pipeline
module Serve = Hoiho_serve.Serve
module Server = Hoiho_net.Server
module Http = Hoiho_net.Http
module City = Hoiho_geodb.City

let tc = Helpers.tc

let q ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let feq = Alcotest.(check (float 1e-12))

(* --- building blocks --- *)

let stats ?(tp = 0) ?(fp = 0) ?(fn = 0) ?(unk = 0) ?(agreement = 1.0) () =
  { Confidence.tp; fp; fn; unk; rtt_agreement = agreement }

let signals ?(stats = Confidence.no_stats) ?(collisions = 0)
    ?(provenance = Evalx.Dictionary) ?overlay () =
  { Confidence.stats; collisions; provenance; overlay }

let entry ?(tp = 0) ?(fp = 0) ?(collides = false) hint =
  {
    Learned.hint;
    hint_type = Plan.Iata;
    city = Helpers.city "london" "gb";
    tp;
    fp;
    collides;
  }

(* --- the formula at its extremes --- *)

let test_prior () =
  (* no evidence at all: the Laplace prior, undiluted *)
  feq "no evidence scores the 0.5 prior" 0.5
    (Confidence.score (signals ()))

let test_strong_evidence () =
  let high = Confidence.score (signals ~stats:(stats ~tp:1000 ()) ()) in
  Alcotest.(check bool) "overwhelming clean evidence scores high" true
    (high > 0.95 && high <= 1.0);
  let low = Confidence.score (signals ~stats:(stats ~fp:1000 ()) ()) in
  Alcotest.(check bool) "overwhelming dirty evidence scores low" true
    (low < 0.05 && low >= 0.0)

let test_support_shrinkage () =
  (* 4 clean samples move the score n/(n+8) = 1/3 of the way from the
     prior to the smoothed PPV: 0.5 + (1/3)(5/6 - 0.5) *)
  feq "small support cannot claim certainty"
    (0.5 +. (1.0 /. 3.0 *. (5.0 /. 6.0 -. 0.5)))
    (Confidence.score (signals ~stats:(stats ~tp:4 ()) ()));
  (* more clean evidence never scores lower *)
  let prev = ref 0.0 in
  List.iter
    (fun tp ->
      let s = Confidence.score (signals ~stats:(stats ~tp ()) ()) in
      Alcotest.(check bool)
        (Printf.sprintf "monotone in support at tp=%d" tp)
        true (s >= !prev);
      prev := s)
    [ 0; 1; 2; 4; 8; 16; 64; 1000 ]

let test_agreement_extremes () =
  let base = Confidence.score (signals ~stats:(stats ~tp:100 ()) ()) in
  let vetoed =
    Confidence.score (signals ~stats:(stats ~tp:100 ~agreement:0.0 ()) ())
  in
  (* full cross-channel disagreement costs exactly 15% of the score *)
  feq "agreement=0 is the 0.85 haircut" (0.85 *. base) vetoed;
  (* out-of-range agreement is clamped, not amplified *)
  feq "agreement above 1 clamps"
    (Confidence.score (signals ~stats:(stats ~tp:100 ~agreement:1.0 ()) ()))
    (Confidence.score (signals ~stats:(stats ~tp:100 ~agreement:7.0 ()) ()))

let test_collision_dilution () =
  let at n =
    Confidence.score (signals ~stats:(stats ~tp:100 ()) ~collisions:n ())
  in
  (* strictly decreasing in the number of losers... *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "loser %d dilutes" (n + 1))
        true
        (at (n + 1) < at n))
    [ 0; 1; 2; 3 ];
  (* ...with the documented 1/(1+0.25*losers) shape: 4 losers halve *)
  feq "four losers exactly halve" (at 0 /. 2.0) (at 4);
  (* a negative count cannot inflate *)
  feq "negative collisions are zero collisions" (at 0)
    (Confidence.score (signals ~stats:(stats ~tp:100 ()) ~collisions:(-3) ()))

let test_overlay_purity () =
  let base ?overlay () =
    Confidence.score
      (signals ~stats:(stats ~tp:100 ()) ~provenance:Evalx.Overlay ?overlay ())
  in
  (* an fp-free learned hint costs nothing, whatever its support *)
  feq "pure overlay hint is free" (base ())
    (base ~overlay:(entry ~tp:5 "lhr") ());
  feq "pure overlay hint is free at tp=1" (base ())
    (base ~overlay:(entry ~tp:1 "lhr") ());
  (* an impure hint pays its purity relative to a clean record of the
     same size: smoothed(5,5)/smoothed(10,0) = (6/12)/(11/12) = 6/11 *)
  feq "impure overlay pays the purity ratio"
    (base () *. (6.0 /. 11.0))
    (base ~overlay:(entry ~tp:5 ~fp:5 "lhr") ());
  (* a dictionary-colliding hint keeps the flat 0.9 haircut *)
  feq "dictionary collision haircut"
    (base () *. 0.9)
    (base ~overlay:(entry ~tp:5 ~collides:true "lhr") ())

let test_of_resolution () =
  let learned = Learned.empty () in
  let ex =
    { Plan.hint = "lhr"; hint_type = Plan.Iata; cc = None; state = None }
  in
  let city = Helpers.city "london" "gb" in
  let st = stats ~tp:100 () in
  feq "unresolvable extraction scores 0.0" 0.0
    (Confidence.of_resolution ~stats:st ~learned ex ([], Evalx.Dictionary));
  feq "losers count as collisions"
    (Confidence.score (signals ~stats:st ~collisions:2 ()))
    (Confidence.of_resolution ~stats:st ~learned ex
       ([ city; city; city ], Evalx.Dictionary));
  (* overlay provenance looks the hint up in the learned overlay *)
  let e = entry ~tp:3 ~fp:1 "lhr" in
  Learned.add learned e;
  feq "overlay provenance consults the learned entry"
    (Confidence.score
       (signals ~stats:st ~provenance:Evalx.Overlay ~overlay:e ()))
    (Confidence.of_resolution ~stats:st ~learned ex ([ city ], Evalx.Overlay));
  (* ...but only for the matching hint *)
  let ex' = { ex with Plan.hint = "fra" } in
  feq "unknown overlay hint carries no overlay factor"
    (Confidence.score (signals ~stats:st ~provenance:Evalx.Overlay ()))
    (Confidence.of_resolution ~stats:st ~learned ex' ([ city ], Evalx.Overlay))

let test_describe_loser () =
  let best = { (Helpers.city "london" "gb") with City.population = 900 } in
  let loser = { (Helpers.city "tokyo" "jp") with City.population = 250 } in
  Alcotest.(check string) "loser line shows the support margin"
    (Printf.sprintf "%s (support 250, -650 vs winner)" (City.describe loser))
    (Confidence.describe_loser ~best loser)

(* --- properties: the score is a total, clamped function --- *)

let gen_signals =
  QCheck.Gen.(
    let* tp = int_bound 10_000 in
    let* fp = int_bound 10_000 in
    let* agreement = float_bound_inclusive 2.0 in
    let* collisions = int_range (-2) 50 in
    let* overlay =
      oneof
        [
          return None;
          (let* otp = int_bound 100 in
           let* ofp = int_bound 100 in
           let* collides = bool in
           return (Some (entry ~tp:otp ~fp:ofp ~collides "lhr")));
        ]
    in
    return
      (signals
         ~stats:(stats ~tp ~fp ~agreement ())
         ~collisions ~provenance:Evalx.Overlay ?overlay ()))

let arb_signals =
  QCheck.make
    ~print:(fun (s : Confidence.signals) ->
      Printf.sprintf "tp=%d fp=%d agree=%f coll=%d overlay=%b"
        s.Confidence.stats.Confidence.tp s.Confidence.stats.Confidence.fp
        s.Confidence.stats.Confidence.rtt_agreement s.Confidence.collisions
        (s.Confidence.overlay <> None))
    gen_signals

let prop_clamped =
  q "score lands in [0,1] for any signal combination" arb_signals (fun s ->
      let v = Confidence.score s in
      v >= 0.0 && v <= 1.0 && Float.is_finite v)

(* --- properties: determinism across serving configurations --- *)

(* random probes over the fixture world: corpus hostnames under
   benign decorations the boundary must absorb, plus misses *)
let gen_probe =
  let corpus = lazy (List.map fst (Test_net.corpus_lines ())) in
  QCheck.Gen.(
    let* base =
      oneof
        [
          (let* l = oneofl (Lazy.force corpus) in
           return l);
          return "unknown-host.example";
          return "xyz123.no-such-suffix.test";
        ]
    in
    let* decorate =
      oneofl
        [
          Fun.id;
          String.uppercase_ascii;
          String.capitalize_ascii;
          (fun s -> s ^ ".");
        ]
    in
    return (decorate base))

let arb_probe = QCheck.make ~print:Fun.id gen_probe

let prop_jobs_determinism =
  (* one warm server per jobs setting; every probe must answer with the
     exact same confidence float through either, and both must equal
     the in-process pipeline score *)
  let servers =
    lazy
      (let p, model, _ = Lazy.force Test_net.fixture in
       (p, Serve.create model, Serve.create model))
  in
  q "confidence is byte-identical at jobs=1 and jobs=4" arb_probe (fun h ->
      let p, s1, s4 = Lazy.force servers in
      let a1 =
        match Serve.apply_batch ~jobs:1 s1 [ h ] with
        | [ (_, a) ] -> a
        | _ -> QCheck.Test.fail_report "jobs=1 batch shape"
      in
      let a4 =
        match Serve.apply_batch ~jobs:4 s4 [ h ] with
        | [ (_, a) ] -> a
        | _ -> QCheck.Test.fail_report "jobs=4 batch shape"
      in
      let city, conf = Pipeline.geolocate_conf p h in
      if a1 <> a4 then
        QCheck.Test.fail_reportf "jobs=1 %.17g <> jobs=4 %.17g for %S"
          a1.Serve.confidence a4.Serve.confidence h;
      if a1.Serve.city <> city || a1.Serve.confidence <> conf then
        QCheck.Test.fail_reportf "serve %.17g <> in-process %.17g for %S"
          a1.Serve.confidence conf h;
      true)

let test_socket_matches_inproc () =
  (* the same probe distribution over a real socket: a /batch of
     generated hostnames must render exactly the in-process scores *)
  let p, model, _ = Lazy.force Test_net.fixture in
  let rand = Random.State.make [| 0x5eed |] in
  let probes =
    List.init 200 (fun _ -> QCheck.Gen.generate1 ~rand gen_probe)
  in
  let expected =
    probes
    |> List.map (fun h ->
           let city, conf = Pipeline.geolocate_conf p h in
           Printf.sprintf "%s\t%s\t%.3f\n" h
             (match city with Some c -> City.describe c | None -> "-")
             conf)
    |> String.concat ""
  in
  Test_net.with_server ~config:Test_net.small_config model (fun _ port ->
      let { Hoiho_net.Http.status; body; _ } =
        Test_net.request ~meth:"POST"
          ~body:(String.concat "\n" probes)
          port "/batch"
      in
      Alcotest.(check int) "batch status" 200 status;
      Alcotest.(check string) "socket scores = in-process scores" expected
        body)

let suites =
  [
    ( "confidence",
      [
        tc "prior" test_prior;
        tc "evidence extremes" test_strong_evidence;
        tc "support shrinkage" test_support_shrinkage;
        tc "agreement extremes" test_agreement_extremes;
        tc "collision dilution" test_collision_dilution;
        tc "overlay purity" test_overlay_purity;
        tc "of_resolution" test_of_resolution;
        tc "describe_loser" test_describe_loser;
        prop_clamped;
        prop_jobs_determinism;
        tc "socket scores match in-process" test_socket_matches_inproc;
      ] );
  ]
