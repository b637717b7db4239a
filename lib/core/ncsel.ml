module Obs = Hoiho_obs.Obs
module Trace = Hoiho_obs.Trace

(* stage-4 selection metrics: candidates that reached the expensive
   per-sample evaluation, exact (source, plan) duplicates dropped
   before it, and evaluated candidates rejected for matching nothing *)
let c_evaluated = Obs.counter "ncsel.candidates_evaluated"
let c_deduped = Obs.counter "ncsel.candidates_deduped"
let c_rejected = Obs.counter "ncsel.candidates_rejected"

type classification = Good | Promising | Poor

type t = {
  cands : Cand.t list;
  counts : Evalx.counts;
  hits : Evalx.hit list;
  unique_hints : int;
}

let seed_count = 8

(* per-candidate hits are evaluated once; NC evaluation then just picks,
   per sample, the first member whose regex matched *)
type prepared = { cand : Cand.t; hits : Evalx.hit array; atp : int }

let matched (h : Evalx.hit) = h.Evalx.extraction <> None

let eval_prepared samples (members : prepared list) =
  let n = Array.length samples in
  let hits =
    Array.to_list
      (Array.init n (fun i ->
           let sample = samples.(i) in
           let rec first = function
             | [] ->
                 let tagged = sample.Apparent.tags <> [] in
                 {
                   Evalx.sample;
                   outcome = (if tagged then Evalx.FN else Evalx.Skip);
                   extraction = None;
                   location = None;
                 }
             | m :: rest -> if matched m.hits.(i) then m.hits.(i) else first rest
           in
           first members))
  in
  let counts =
    List.fold_left (fun c (h : Evalx.hit) -> Evalx.add_outcome c h.Evalx.outcome) Evalx.zero hits
  in
  {
    cands = List.map (fun m -> m.cand) members;
    counts;
    hits;
    unique_hints = List.length (Evalx.unique_tp_hints hits);
  }

(* unique TP hints attributed to each member within an NC: a sample is
   attributed to the first member whose regex matched it *)
let member_unique_hints samples (members : prepared list) =
  let n = Array.length samples in
  let tables = List.map (fun _ -> Hashtbl.create 8) members in
  for i = 0 to n - 1 do
    let rec attribute ms ts =
      match (ms, ts) with
      | [], [] -> ()
      | m :: ms', t :: ts' ->
          if matched m.hits.(i) then begin
            match m.hits.(i) with
            | { Evalx.outcome = Evalx.TP; extraction = Some ex; _ } ->
                Hashtbl.replace t ex.Plan.hint ()
            | _ -> ()
          end
          else attribute ms' ts'
      | _ -> assert false
    in
    attribute members tables
  done;
  List.map Hashtbl.length tables

(* evaluating the same compiled regex with the same decode plan twice
   cannot change any count; drop exact duplicates before the expensive
   per-candidate evaluation *)
let dedupe_cands cands =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (c : Cand.t) ->
      let key = (c.Cand.source, c.Cand.plan) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    cands

let prepare ?(jobs = 1) consist db ?learned cands samples_arr =
  let eval cand =
    Trace.with_span "ncsel.cand"
      ~attrs:
        [
          ("source", cand.Cand.source);
          ("plan", Format.asprintf "%a" Plan.pp cand.Cand.plan);
        ]
    @@ fun () ->
    let hits =
      Array.map (Evalx.eval_sample consist db ?learned cand) samples_arr
    in
    let counts =
      Array.fold_left
        (fun c (h : Evalx.hit) -> Evalx.add_outcome c h.Evalx.outcome)
        Evalx.zero hits
    in
    Trace.add_attr "atp" (string_of_int (Evalx.atp counts));
    { cand; hits; atp = Evalx.atp counts }
  in
  (* the pool evaluates EVERY candidate and re-raises the first error in
     candidate order, so a poisoned sample aborts the suffix with the
     same work counters and the same attributed exception on one lane
     or eight. chunk:1 makes each candidate its own stealable job: a
     fat suffix's evaluation tail is then drained by whichever lanes
     fall idle, instead of serializing on the lane that happened to
     claim its chunk. *)
  Hoiho_obs.Pool.parallel_map (Hoiho_obs.Pool.get jobs) ~chunk:1 eval cands

let eval_nc consist db ?learned cands samples =
  let samples_arr = Array.of_list samples in
  let members = prepare consist db ?learned cands samples_arr in
  eval_prepared samples_arr members

let min_member_hints = 3
let ppv_tolerance = 0.10

let grow samples_arr ranked seed =
  let seed_nc = eval_prepared samples_arr [ seed ] in
  let seed_ppv = Evalx.ppv seed_nc.counts in
  let rec loop members nc =
    let current_atp = Evalx.atp nc.counts in
    let try_add m =
      if List.memq m members then None
      else begin
        let members' = members @ [ m ] in
        let nc' = eval_prepared samples_arr members' in
        let ok =
          Evalx.atp nc'.counts > current_atp
          && List.for_all
               (fun u -> u >= min_member_hints)
               (member_unique_hints samples_arr members')
          && Evalx.ppv nc'.counts >= seed_ppv -. ppv_tolerance
        in
        if ok then Some (members', nc') else None
      end
    in
    let best =
      List.fold_left
        (fun acc m ->
          match try_add m with
          | None -> acc
          | Some (_, nc') as ext -> (
              match acc with
              | Some (_, best_nc) when Evalx.atp best_nc.counts >= Evalx.atp nc'.counts ->
                  acc
              | _ -> ext))
        None ranked
    in
    match best with
    | Some (members', nc') -> loop members' nc'
    | None -> nc
  in
  loop [ seed ] seed_nc

let build ?jobs consist db ?learned cands samples =
  let jobs = match jobs with Some j -> j | None -> Hoiho_obs.Pool.default_jobs () in
  let samples_arr = Array.of_list samples in
  let n_raw = List.length cands in
  Trace.with_span "ncsel.build"
    ~attrs:
      [
        ("cands_in", string_of_int n_raw);
        ("samples", string_of_int (Array.length samples_arr));
      ]
  @@ fun () ->
  let cands = dedupe_cands cands in
  Obs.add c_deduped (n_raw - List.length cands);
  Obs.add c_evaluated (List.length cands);
  Trace.add_attr "deduped" (string_of_int (n_raw - List.length cands));
  let prepared = prepare ~jobs consist db ?learned cands samples_arr in
  let with_matches =
    List.filter (fun m -> Array.exists matched m.hits) prepared
  in
  Obs.add c_rejected (List.length prepared - List.length with_matches);
  Trace.add_attr "rejected"
    (string_of_int (List.length prepared - List.length with_matches));
  match with_matches with
  | [] -> None
  | _ ->
      let ranked =
        List.sort (fun a b -> compare b.atp a.atp) with_matches
      in
      let seeds = List.filteri (fun i _ -> i < seed_count) ranked in
      (* the greedy grow from each seed is independent and reads only
         precomputed hits; growing the 8 seeds as stealable sub-jobs
         parallelizes the set-building tail that used to serialize a
         fat suffix. [grow] is pure and touches no Obs counter, so the
         order-preserving map keeps results jobs-invariant. *)
      let ncs =
        Hoiho_obs.Pool.parallel_map (Hoiho_obs.Pool.get jobs) ~chunk:1
          (grow samples_arr ranked) seeds
      in
      let by_atp =
        List.sort
          (fun a b -> compare (Evalx.atp b.counts) (Evalx.atp a.counts))
          ncs
      in
      (match by_atp with
      | [] -> None
      | best :: _ ->
          (* prefer fewer regexes when within 3 TPs of the best *)
          let contenders =
            List.filter
              (fun nc -> nc.counts.Evalx.tp >= best.counts.Evalx.tp - 3)
              by_atp
          in
          let preferred =
            List.fold_left
              (fun acc nc ->
                match acc with
                | None -> Some nc
                | Some cur ->
                    if List.length nc.cands < List.length cur.cands then Some nc
                    else acc)
              None contenders
          in
          (match preferred with Some nc -> Some nc | None -> Some best))

let classify nc =
  let ppv = Evalx.ppv nc.counts in
  if nc.unique_hints >= 3 && ppv >= 0.9 then Good
  else if nc.unique_hints >= 3 && ppv >= 0.8 then Promising
  else Poor

let usable = function Good | Promising -> true | Poor -> false
