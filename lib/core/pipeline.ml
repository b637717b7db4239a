module Db = Hoiho_geodb.Db
module Pool = Hoiho_obs.Pool
module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router
module Obs = Hoiho_obs.Obs
module Trace = Hoiho_obs.Trace

(* run-level observability (see DESIGN.md §7): per-stage and per-suffix
   wall time plus work counters. The counters are deterministic across
   [jobs] settings because the same stages run on the same inputs
   regardless of scheduling; the duration histograms are wall-clock and
   are not. *)
let h_stage_apparent = Obs.histogram "pipeline.stage.apparent_ms"
let h_stage_regen = Obs.histogram "pipeline.stage.regen_ms"
let h_stage_ncsel = Obs.histogram "pipeline.stage.ncsel_ms"
let h_stage_learn = Obs.histogram "pipeline.stage.learn_ms"
let h_stage_reselect = Obs.histogram "pipeline.stage.reselect_ms"
let h_suffix = Obs.histogram "pipeline.suffix_ms"
let h_run = Obs.histogram "pipeline.run_ms"
let c_suffixes = Obs.counter "pipeline.suffix_groups"
let c_samples = Obs.counter "pipeline.samples"
let c_tagged = Obs.counter "pipeline.tagged"
let c_learned = Obs.counter "pipeline.learned_hints"
let c_degraded = Obs.counter "pipeline.suffix_degraded"

type degradation = { stage : string; error : string }

type suffix_result = {
  suffix : string;
  n_routers : int;
  n_samples : int;
  n_tagged : int;
  n_tagged_routers : int;
  nc : Ncsel.t option;
  learned : Learned.t;
  classification : Ncsel.classification option;
  stats : Confidence.suffix_stats option;
  degraded : degradation option;
}

(* internal: pins a stage failure to its stage name on the way out of
   the Obs.time wrappers, so the degraded result can attribute it *)
exception Stage_failed of string * exn

let stage name f =
  try Trace.with_span ("pipeline.stage." ^ name) f with
  | Stage_failed _ as e -> raise e
  | e -> raise (Stage_failed (name, e))

type t = {
  dataset : Dataset.t;
  consist : Consist.t;
  db : Db.t;
  results : suffix_result list;
  index : Apply.index;
  metrics : Obs.snapshot;
}

let suffix_model_of_result r =
  match (r.nc, r.classification) with
  | Some nc, Some classification ->
      Some
        {
          Apply.suffix = r.suffix;
          classification;
          cands =
            List.map
              (fun (c : Cand.t) ->
                {
                  Apply.source = c.Cand.source;
                  plan = c.Cand.plan;
                  regex = c.Cand.regex;
                })
              nc.Ncsel.cands;
          learned = r.learned;
          stats = Option.value r.stats ~default:Confidence.no_stats;
        }
  | _ -> None

let run_suffix_exn consist db ~learn_geohints ?jobs ~suffix routers =
  let samples =
    stage "apparent" (fun () ->
        Obs.time h_stage_apparent (fun () ->
            Apparent.build_samples consist db ~suffix routers))
  in
  let tagged = List.filter (fun (s : Apparent.sample) -> s.Apparent.tags <> []) samples in
  Obs.add c_samples (List.length samples);
  Obs.add c_tagged (List.length tagged);
  (* lands on the enclosing pipeline.suffix span when run under [run] *)
  Trace.add_attr "samples" (string_of_int (List.length samples));
  Trace.add_attr "tagged" (string_of_int (List.length tagged));
  let tagged_routers =
    List.sort_uniq compare
      (List.map (fun (s : Apparent.sample) -> s.Apparent.router.Router.id) tagged)
  in
  let base =
    {
      suffix;
      n_routers = List.length routers;
      n_samples = List.length samples;
      n_tagged = List.length tagged;
      n_tagged_routers = List.length tagged_routers;
      nc = None;
      learned = Learned.empty ();
      classification = None;
      stats = None;
      degraded = None;
    }
  in
  if tagged = [] then base
  else begin
    let cands =
      stage "regen" (fun () ->
          Obs.time h_stage_regen (fun () -> Regen.candidates ?jobs ~suffix tagged))
    in
    match
      stage "ncsel" (fun () ->
          Obs.time h_stage_ncsel (fun () -> Ncsel.build ?jobs consist db cands samples))
    with
    | None -> base
    | Some nc0 ->
        let learned =
          stage "learn" (fun () ->
              Obs.time h_stage_learn (fun () ->
                  if learn_geohints then Learn.learn consist db nc0 else Learned.empty ()))
        in
        Obs.add c_learned (Learned.size learned);
        let nc =
          if Learned.is_empty learned then nc0
          else
            stage "reselect" (fun () ->
                Obs.time h_stage_reselect (fun () ->
                    match Ncsel.build ?jobs consist db ~learned cands samples with
                    | Some nc -> nc
                    | None -> nc0))
        in
        {
          base with
          nc = Some nc;
          learned;
          classification = Some (Ncsel.classify nc);
          (* digested from the final NC (after reselect): the per-answer
             confidence signals that must survive into the snapshot *)
          stats = Some (Confidence.stats_of_nc consist nc);
        }
  end

(* Per-suffix failure isolation: suffix groups are mutually independent,
   so one poisoned group (mangled hostname, dangling VP id, pathological
   sample) must not abort the run — it is reported as a [degraded]
   result carrying the failing stage and exception, and every other
   suffix learns normally. The catch lives here rather than in [run] so
   direct [run_suffix] callers (examples, tests, bench) get the same
   contract. *)
let run_suffix consist db ?(learn_geohints = true) ?jobs ~suffix routers =
  Obs.incr c_suffixes;
  let degrade stage_name e =
    Obs.incr c_degraded;
    {
      suffix;
      n_routers = List.length routers;
      n_samples = 0;
      n_tagged = 0;
      n_tagged_routers = 0;
      nc = None;
      learned = Learned.empty ();
      classification = None;
      stats = None;
      degraded = Some { stage = stage_name; error = Printexc.to_string e };
    }
  in
  match run_suffix_exn consist db ~learn_geohints ?jobs ~suffix routers with
  | result -> result
  | exception Stage_failed (name, e) -> degrade name e
  | exception e -> degrade "suffix" e

(* Suffix groups are mutually independent, so a set of them fans out
   over a shared domain pool; [consist] and [db] are read-only after
   construction (see Consist) and safe to share. Each worker may in
   turn fan its candidate evaluations out over the same pool — the
   pool's helping scheduler makes the nesting deadlock-free. Results
   are returned in input-group order and are bit-identical across
   [jobs] settings. Shared by [run] (all groups) and
   [Delta.relearn_model] (the dirty groups only). *)
let run_groups consist db ?(learn_geohints = true) ?jobs groups =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let run_group (suffix, routers) =
    Trace.with_span "pipeline.suffix" ~attrs:[ ("suffix", suffix) ]
    @@ fun () ->
    Obs.time h_suffix (fun () ->
        run_suffix consist db ~learn_geohints ~jobs ~suffix routers)
  in
  (* LPT order: the fattest groups are claimed first so one huge
     suffix can't land last and serialize the tail of the run; chunk:1
     makes every group its own claimable job. Each group's stages fan
     out again over the same pool: a lane waiting on one of them runs
     only that group's work, never another group (pool.mli), and an
     idle lane helps with a fat group instead of waiting behind it.
     Results land back in their original slots — output order, and
     everything downstream, is unchanged. *)
  let arr = Array.of_list groups in
  let n = Array.length arr in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b -> compare (List.length (snd arr.(b))) (List.length (snd arr.(a))))
    order;
  let slots = Array.make n None in
  Pool.parallel_for (Pool.get jobs) ~chunk:1 n (fun k ->
      let i = order.(k) in
      slots.(i) <- Some (run_group arr.(i)));
  Array.to_list (Array.map Option.get slots)

let run ?db ?(learn_geohints = true) ?jobs dataset =
  let db = match db with Some db -> db | None -> Db.default () in
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let consist = Consist.create dataset in
  let groups = Dataset.by_suffix dataset in
  Trace.with_span "pipeline.run"
    ~attrs:
      [
        ("dataset", dataset.Dataset.label);
        ("suffix_groups", string_of_int (List.length groups));
      ]
  @@ fun () ->
  let results =
    Obs.time h_run (fun () -> run_groups consist db ~learn_geohints ~jobs groups)
  in
  (* by_suffix yields each suffix once, so indexing cannot fail *)
  let index =
    Result.get_ok (Apply.index (List.filter_map suffix_model_of_result results))
  in
  { dataset; consist; db; results; index; metrics = Obs.snapshot () }

let usable r =
  match r.classification with Some c -> Ncsel.usable c | None -> false

let find t suffix = List.find_opt (fun r -> r.suffix = suffix) t.results

let geolocate_conf t hostname =
  (* the learned regexes speak normalized hostnames (lowercase, no
     whitespace, no root dot): the PSL lookup normalizes internally, so
     the very same normalized string must be what [Engine.exec] sees *)
  let a =
    Apply.apply t.db t.index (Hoiho_util.Strutil.normalize_hostname hostname)
  in
  (a.Apply.city, a.Apply.confidence)

let geolocate t hostname = fst (geolocate_conf t hostname)

let geolocated_routers _t r =
  match r.nc with
  | None -> 0
  | Some nc ->
      List.filter_map
        (fun (h : Evalx.hit) ->
          match h.Evalx.outcome with
          | Evalx.TP -> Some h.Evalx.sample.Apparent.router.Router.id
          | _ -> None)
        nc.Ncsel.hits
      |> List.sort_uniq compare |> List.length
