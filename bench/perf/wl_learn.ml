(* learn-paper: the paper's offline path. Load the ITDK corpus, then
   learn it with Pipeline.run ~jobs:2 as many times as the timed phase
   allows. It exercises itdk parsing, the five core stages, Pool and rx,
   and never touches serve or net, so a serve-side change must not move
   it.

   The traced phase replays one learn at jobs=1, calling the stages in
   Pipeline.run_suffix's order from the benchmark's own spans, and
   checks that every group comes out as Pipeline.run ~jobs:1 has it. *)

open Common
module Io = Hoiho_itdk.Io
module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router
module Pipeline = Hoiho.Pipeline
module Learned_io = Hoiho.Learned_io
module Learned = Hoiho.Learned
module Apparent = Hoiho.Apparent
module Regen = Hoiho.Regen
module Ncsel = Hoiho.Ncsel
module Learn = Hoiho.Learn
module Consist = Hoiho.Consist
module Confidence = Hoiho.Confidence
module Engine = Hoiho_rx.Engine
module Obs = Hoiho_obs.Obs

let span = Spans.span

let layers =
  [
    "itdk.by_suffix"; "core.consist"; "core.apparent"; "core.regen"; "core.ncsel";
    "core.learn"; "core.reselect"; "core.stats";
  ]

type counts = {
  mutable samples : int;
  mutable tagged : int;
  mutable cands : int;
  mutable ncsel_groups : int;
  mutable selected : int;
  mutable learned : int;
}

(* Pipeline.run_suffix, stage by stage *)
let replay_suffix c consist db (suffix, routers) =
  span "core.group" @@ fun () ->
  let samples = span "core.apparent" (fun () -> Apparent.build_samples consist db ~suffix routers) in
  let tagged = List.filter (fun (s : Apparent.sample) -> s.Apparent.tags <> []) samples in
  c.samples <- c.samples + List.length samples;
  c.tagged <- c.tagged + List.length tagged;
  let base =
    {
      Pipeline.suffix;
      n_routers = List.length routers;
      n_samples = List.length samples;
      n_tagged = List.length tagged;
      n_tagged_routers =
        List.length
          (List.sort_uniq compare
             (List.map (fun (s : Apparent.sample) -> s.Apparent.router.Router.id) tagged));
      nc = None;
      learned = Learned.empty ();
      classification = None;
      stats = None;
      degraded = None;
    }
  in
  if tagged = [] then base
  else begin
    let cands = span "core.regen" (fun () -> Regen.candidates ~jobs:1 ~suffix tagged) in
    c.cands <- c.cands + List.length cands;
    c.ncsel_groups <- c.ncsel_groups + 1;
    match span "core.ncsel" (fun () -> Ncsel.build ~jobs:1 consist db cands samples) with
    | None -> base
    | Some nc0 ->
        c.selected <- c.selected + 1;
        let learned = span "core.learn" (fun () -> Learn.learn consist db nc0) in
        c.learned <- c.learned + Learned.size learned;
        let nc =
          if Learned.is_empty learned then nc0
          else
            span "core.reselect" (fun () ->
                match Ncsel.build ~jobs:1 consist db ~learned cands samples with
                | Some nc -> nc
                | None -> nc0)
        in
        let classification, stats =
          span "core.stats" (fun () -> (Ncsel.classify nc, Confidence.stats_of_nc consist nc))
        in
        { base with nc = Some nc; learned; classification = Some classification; stats = Some stats }
  end

let same_groups (a : Pipeline.suffix_result list) (b : Pipeline.suffix_result list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Pipeline.suffix_result) (y : Pipeline.suffix_result) ->
         x.suffix = y.suffix && x.n_routers = y.n_routers && x.n_samples = y.n_samples
         && x.n_tagged = y.n_tagged && x.n_tagged_routers = y.n_tagged_routers)
       a b

let traced_phase l ds ~corpus ~ref_digest =
  (* Pool efficiency over one untraced jobs=2 learn *)
  Obs.reset ();
  let c0 = cpu_seconds () and w0 = now_s () in
  ignore (Pipeline.run ~jobs:2 ds);
  let efficiency = ratio (cpu_seconds () -. c0) ((now_s () -. w0) *. 2.0) in
  (* the untraced reference the replay must reproduce *)
  Obs.reset ();
  Gc.full_major ();
  let w0 = now_s () in
  let p1 = Pipeline.run ~jobs:1 ds in
  let untraced_s = now_s () -. w0 in
  let model1 = Learned_io.of_pipeline p1 in
  check l (Inputs.model_digest model1 = ref_digest) "jobs=1 learn differs from the reference learn";
  Gc.full_major ();
  Spans.start ();
  let ds = span "itdk.load" (fun () -> Io.load corpus) in
  let c = { samples = 0; tagged = 0; cands = 0; ncsel_groups = 0; selected = 0; learned = 0 } in
  let calls0, skips0 = Engine.prefilter_stats () in
  let alloc0 = Gc.allocated_bytes () in
  let replayed =
    span "learn" (fun () ->
        let groups = span "itdk.by_suffix" (fun () -> Dataset.by_suffix ds) in
        let consist = span "core.consist" (fun () -> Consist.create ds) in
        List.map (replay_suffix c consist p1.Pipeline.db) groups)
  in
  let alloc_mb = (Gc.allocated_bytes () -. alloc0) /. 1048576.0 in
  let calls1, skips1 = Engine.prefilter_stats () in
  let spans = Spans.stop () in
  check l
    (same_groups replayed p1.Pipeline.results
    && Inputs.model_digest
         (Learned_io.of_pipeline { p1 with Pipeline.results = replayed })
       = Inputs.model_digest model1)
    "stage-by-stage replay differs from Pipeline.run ~jobs:1";
  let sum = Spans.summarize spans in
  let root = Spans.root sum "learn" in
  let coverage = Spans.coverage sum root ~layers in
  let group_durs = List.map Spans.dur_s (Spans.named sum "core.group") in
  let calls = float_of_int (calls1 - calls0) and skips = float_of_int (skips1 - skips0) in
  let self = Spans.self_total_s sum in
  let metrics =
    [
      ("itdk.load_s", Spans.total_s sum "itdk.load");
      ("itdk.by_suffix_s", self "itdk.by_suffix");
      ("core.consist_s", self "core.consist");
      ("core.apparent_s", self "core.apparent");
      ("core.regen_s", self "core.regen");
      ("core.ncsel_s", self "core.ncsel");
      ("core.learn_s", self "core.learn");
      ("core.reselect_s", self "core.reselect");
      ("core.stats_s", self "core.stats");
      ( "core.largest_group_share",
        ratio (List.fold_left Float.max 0.0 group_durs) (List.fold_left ( +. ) 0.0 group_durs) );
      ("core.samples", float_of_int c.samples);
      ("core.tagged_ratio", ratio (float_of_int c.tagged) (float_of_int c.samples));
      ("core.regen.cands", float_of_int c.cands);
      ("core.ncsel.selected_ratio", ratio (float_of_int c.selected) (float_of_int c.ncsel_groups));
      ("core.learned_hints", float_of_int c.learned);
      ("rx.exec_calls", calls);
      ("rx.prefilter_skip_ratio", ratio skips calls);
      ("util.pool.efficiency", efficiency);
      ("core.learned_io.bytes", float_of_int (String.length (Learned_io.encode model1)));
      ("trace.coverage", coverage);
      ("trace.overhead_ratio", ratio (Spans.dur_s root) untraced_s -. 1.0);
      ("gc.alloc_mb", alloc_mb);
    ]
  in
  check l (coverage >= 0.85 && coverage <= 1.15) "trace.coverage %.3f outside [0.85, 1.15]" coverage;
  (metrics, spans)

let run (p : params) =
  let l = ledger () in
  let corpus = Inputs.corpus_file p.inputs in
  let ref_digest = Inputs.meta_string p.inputs "learn_digest" in
  (* set-up: the corpus load `hoiho learn -i` starts with *)
  let setup_reps = if p.smoke then 1 else 3 in
  let ds = ref None in
  let setup =
    Array.init setup_reps (fun _ ->
        ds := None;
        Gc.full_major ();
        let t0 = now_s () in
        ds := Some (Io.load corpus);
        now_s () -. t0)
  in
  let ds = Option.get !ds in
  let min_reps = if p.smoke then 1 else 3 in
  let times = ref [] and peak_mb = ref nan in
  let t_start = now_s () in
  while List.length !times < min_reps || now_s () -. t_start < p.seconds do
    Obs.reset ();
    let t0 = now_s () in
    let result = Pipeline.run ~jobs:2 ds in
    times := (now_s () -. t0) *. 1000.0 :: !times;
    check l
      (Inputs.model_digest (Learned_io.of_pipeline result) = ref_digest)
      "learn rep %d: snapshot differs from the jobs=1 learn" (List.length !times);
    (* after a fixed amount of work: the heap keeps growing slowly with
       repetitions, and how many fit in the phase depends on the host *)
    if List.length !times = min_reps then peak_mb := self_hwm_mb ()
  done;
  let times = Array.of_list !times in
  let timed =
    [
      ("setup_s", median setup);
      ("peak_rss_mb", !peak_mb);
      ("op_p50_ms", median times);
      ("op_tail_ms", tail times);
    ]
  in
  let layer, spans =
    if p.trace then traced_phase l ds ~corpus ~ref_digest else ([], [])
  in
  { metrics = timed @ layer; ledger = l; spans }
