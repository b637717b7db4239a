(* apply-unique: bulk `hoiho apply` over a hostname stream in which
   nearly every name is new to the cache, the rDNS sweep case. Every
   pass streams the whole hostname list through Serve.apply_batch
   ~jobs:2 in batches of 256 (the `hoiho apply` default) against a
   fresh Serve.t, so no lookup hits the cache: PSL, regex, resolve and
   confidence do all the work, and a cache-only change must show
   nothing here.

   The traced phase replays a seeded sample layer by layer, each layer
   over the whole sample inside one span, and checks that the composed
   answer equals Serve.geolocate_uncached_conf for every name. *)

open Common
module Learned_io = Hoiho.Learned_io
module Ncsel = Hoiho.Ncsel
module Plan = Hoiho.Plan
module Evalx = Hoiho.Evalx
module Confidence = Hoiho.Confidence
module Serve = Hoiho_serve.Serve
module Engine = Hoiho_rx.Engine
module Strutil = Hoiho_util.Strutil

let span = Spans.span
let batch_size = 256
let sample_size = 20000

let layers =
  [
    "util.normalize"; "psl.suffix"; "serve.index"; "rx.exec"; "core.plan_decode";
    "core.resolve"; "core.confidence";
  ]

let load_model path =
  match Learned_io.load path with
  | Ok m -> m
  | Error e -> harness_error "%s: %s" path (Learned_io.error_to_string e)

let batches hosts =
  let n = Array.length hosts in
  Array.init ((n + batch_size - 1) / batch_size) (fun b ->
      let lo = b * batch_size in
      Array.to_list (Array.sub hosts lo (min batch_size (n - lo))))

let same a b = a.city = b.city && Float.equal a.conf b.conf

(* Serve.apply_norm, one layer at a time: every name goes through a
   layer before any name enters the next. Round r tries each pending
   name's r-th candidate regex; a name leaves when a match decodes. *)
let replay db index sample =
  let n = Array.length sample in
  let keys = span "util.normalize" (fun () -> Array.map Strutil.normalize_hostname sample) in
  let suffixes = span "psl.suffix" (fun () -> Array.map Hoiho_psl.Psl.registered_suffix keys) in
  let models =
    span "serve.index" (fun () ->
        Array.map (function None -> None | Some s -> Hashtbl.find_opt index s) suffixes)
  in
  let answers = Array.make n { Serve.city = None; confidence = Confidence.none } in
  let execs = ref 0 and matches = ref 0 and resolves = ref 0 in
  let rec round r pending =
    if Array.length pending > 0 then begin
      let tried =
        span "rx.exec" (fun () ->
            Array.map
              (fun i ->
                let _, cands = Option.get models.(i) in
                let c : Learned_io.cand = cands.(r) in
                (i, c, Engine.exec c.Learned_io.regex keys.(i)))
              pending)
      in
      execs := !execs + Array.length tried;
      let decoded =
        span "core.plan_decode" (fun () ->
            Array.map
              (fun (i, (c : Learned_io.cand), groups) ->
                match groups with
                | None -> (i, None)
                | Some g ->
                    incr matches;
                    (i, Plan.decode c.Learned_io.plan g))
              tried)
      in
      let hits = List.filter_map (fun (i, ex) -> Option.map (fun ex -> (i, ex)) ex) (Array.to_list decoded) in
      resolves := !resolves + List.length hits;
      let resolved =
        span "core.resolve" (fun () ->
            List.map
              (fun (i, ex) ->
                let sm, _ = Option.get models.(i) in
                (i, ex, Evalx.resolve_explained db ~learned:sm.Learned_io.learned ex))
              hits)
      in
      span "core.confidence" (fun () ->
          List.iter
            (fun (i, ex, ((cities, _) as res)) ->
              let sm, _ = Option.get models.(i) in
              let confidence =
                Confidence.of_resolution ~stats:sm.Learned_io.stats ~learned:sm.Learned_io.learned ex res
              in
              match cities with
              | best :: _ -> answers.(i) <- { Serve.city = Some best; confidence }
              | [] -> ())
            resolved);
      let next =
        Array.of_list
          (List.filter_map
             (fun (i, ex) ->
               let _, cands = Option.get models.(i) in
               if ex = None && r + 1 < Array.length cands then Some i else None)
             (Array.to_list decoded))
      in
      round (r + 1) next
    end
  in
  round 0
    (Array.of_list
       (List.filter
          (fun i -> match models.(i) with Some (_, c) -> Array.length c > 0 | None -> false)
          (List.init n Fun.id)));
  (answers, !execs, !matches, !resolves)

let time_s f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let traced_phase l ~model_path model hosts reference =
  let n = min sample_size (Array.length hosts) in
  (* the host list is in seeded order, so its head is a seeded sample *)
  let sample = Array.sub hosts 0 n in
  let uncached, uncached_s =
    let s = Serve.create model in
    Gc.full_major ();
    time_s (fun () -> Array.map (Serve.geolocate_uncached_conf s) sample)
  in
  let _, cold_s =
    let s = Serve.create model in
    time_s (fun () -> Array.iter (fun h -> ignore (Serve.geolocate_conf s h)) sample)
  in
  let batch_wall jobs =
    let s = Serve.create model in
    snd (time_s (fun () -> Array.iter (fun b -> ignore (Serve.apply_batch ~jobs s b)) (batches sample)))
  in
  let w1 = batch_wall 1 and w2 = batch_wall 2 in
  let bad = ref 0 in
  Array.iteri (fun i a -> if not (same (answer_of_serve a) reference.(i)) then incr bad) uncached;
  check_many l ~n ~bad:!bad "Serve.geolocate_uncached_conf differs from Pipeline.geolocate_conf";
  (* the suffix index Serve.create builds, rebuilt here so the replay
     can call each layer itself *)
  let index = Hashtbl.create 1024 in
  List.iter
    (fun (sm : Learned_io.suffix_model) ->
      match sm.Learned_io.classification with
      | Ncsel.Good | Ncsel.Promising ->
          Hashtbl.replace index sm.Learned_io.suffix (sm, Array.of_list sm.Learned_io.cands)
      | Ncsel.Poor -> ())
    model.Learned_io.suffixes;
  let db = Learned_io.db model in
  Gc.full_major ();
  Spans.start ();
  let model' = span "core.learned_io.decode" (fun () -> load_model model_path) in
  ignore (span "serve.create" (fun () -> Serve.create model'));
  let alloc0 = Gc.allocated_bytes () in
  let composed, execs, matches, resolves = span "apply" (fun () -> replay db index sample) in
  let alloc_mb = (Gc.allocated_bytes () -. alloc0) /. 1048576.0 in
  let spans = Spans.stop () in
  let bad = ref 0 in
  Array.iteri
    (fun i a -> if not (same (answer_of_serve a) (answer_of_serve uncached.(i))) then incr bad)
    composed;
  check_many l ~n ~bad:!bad "layer-by-layer replay differs from Serve.geolocate_uncached_conf";
  let sum = Spans.summarize spans in
  let root = Spans.root sum "apply" in
  let coverage = Spans.coverage sum root ~layers in
  let self = Spans.self_total_s sum in
  let per name count = ratio (self name *. 1e9) (float_of_int count) in
  let n_resolved = Array.fold_left (fun k (a : Serve.answer) -> if a.Serve.city <> None then k + 1 else k) 0 composed in
  let metrics =
    [
      ("core.learned_io.decode_s", Spans.total_s sum "core.learned_io.decode");
      ("serve.create_s", Spans.total_s sum "serve.create");
      ("util.normalize_ns", per "util.normalize" n);
      ("psl.suffix_ns", per "psl.suffix" n);
      ("serve.index_ns", per "serve.index" n);
      ("rx.exec_ns", per "rx.exec" execs);
      ("rx.execs_per_hostname", ratio (float_of_int execs) (float_of_int n));
      ("rx.match_ratio", ratio (float_of_int matches) (float_of_int execs));
      ("core.plan_decode_ns", per "core.plan_decode" matches);
      ("core.resolve_ns", per "core.resolve" resolves);
      ("core.confidence_ns", per "core.confidence" resolves);
      ("serve.answered_ratio", ratio (float_of_int n_resolved) (float_of_int n));
      ("serve.uncached_ns", uncached_s *. 1e9 /. float_of_int n);
      ("serve.cache_overhead_ns", (cold_s -. uncached_s) *. 1e9 /. float_of_int n);
      ("serve.batch_parallel_ratio", ratio w1 w2);
      ("trace.coverage", coverage);
      ("trace.overhead_ratio", ratio (Spans.dur_s root) uncached_s -. 1.0);
      ("gc.alloc_mb", alloc_mb);
    ]
  in
  check l (coverage >= 0.85 && coverage <= 1.15) "trace.coverage %.3f outside [0.85, 1.15]" coverage;
  (metrics, spans)

let run (p : params) =
  let l = ledger () in
  let model_path = Inputs.model_file p.inputs in
  (* the hostname list in the order the seed gives *)
  let all_hosts = Inputs.hosts p.inputs and all_answers = Inputs.answers p.inputs in
  let order = Inputs.seeded_order ~seed:p.seed (Array.length all_hosts) in
  let hosts = Array.map (Array.get all_hosts) order and reference = Array.map (Array.get all_answers) order in
  (* each pass stands for one `hoiho apply --model` over the list, so it
     starts with that command's set-up: the set-up samples then span the
     timed phase instead of its first fraction of a second *)
  let batches = batches hosts in
  let setup = ref [] and times = ref [] and peak_mb = ref nan and model = ref None in
  let passes = ref 0 in
  let t_start = now_s () in
  while !passes < 1 || now_s () -. t_start < p.seconds do
    incr passes;
    let t0 = now_s () in
    let m = load_model model_path in
    let serve = Serve.create m in
    setup := (now_s () -. t0) :: !setup;
    model := Some m;
    let bad = ref 0 and pos = ref 0 in
    Array.iter
      (fun b ->
        let t0 = now_s () in
        let answers = Serve.apply_batch ~jobs:2 serve b in
        times := (now_s () -. t0) *. 1000.0 :: !times;
        List.iter
          (fun (_, a) ->
            if not (same (answer_of_serve a) reference.(!pos)) then incr bad;
            incr pos)
          answers)
      batches;
    check_many l ~n:(Array.length hosts) ~bad:!bad
      (Printf.sprintf "pass %d: %d answers differ from Pipeline.geolocate_conf" !passes !bad);
    (* after a fixed amount of work, as in learn-paper *)
    if !passes = 1 then peak_mb := self_hwm_mb ()
  done;
  let model = Option.get !model in
  let times = Array.of_list !times in
  let timed =
    [
      ("setup_s", median (Array.of_list !setup));
      ("peak_rss_mb", !peak_mb);
      ("op_p50_ms", median times);
      ("op_tail_ms", tail times);
    ]
  in
  let layer, spans = if p.trace then traced_phase l ~model_path model hosts reference else ([], []) in
  { metrics = timed @ layer; ledger = l; spans }
