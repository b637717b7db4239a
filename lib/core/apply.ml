module City = Hoiho_geodb.City
module Engine = Hoiho_rx.Engine
module Trace = Hoiho_obs.Trace

type cand = { source : string; plan : Plan.t; regex : Engine.t }

type suffix_model = {
  suffix : string;
  classification : Ncsel.classification;
  cands : cand list;
  learned : Learned.t;
  stats : Confidence.suffix_stats;
}

type answer = { city : City.t option; confidence : float }

let no_answer = { city = None; confidence = Confidence.none }

type index = (string, suffix_model) Hashtbl.t

let index models =
  (* sized up front: a model's index is built on every load and reload *)
  let tbl = Hashtbl.create (List.length models) in
  let rec go i = function
    | [] -> Ok tbl
    | sm :: rest ->
        if Hashtbl.mem tbl sm.suffix then Error (i, sm.suffix)
        else begin
          Hashtbl.add tbl sm.suffix sm;
          go (i + 1) rest
        end
  in
  go 0 models

let find = Hashtbl.find_opt

(* decision-trace attrs: together exactly what [hoiho explain] prints *)

let trace_groups groups =
  String.concat ","
    (List.map (function Some g -> g | None -> "-") (Array.to_list groups))

let trace_resolve_result cities provenance confidence =
  Trace.add_attr "provenance" (Evalx.provenance_name provenance);
  (match cities with
  | [] -> Trace.add_attr "resolved" "none"
  | best :: losers ->
      Trace.add_attr "resolved" (City.describe best);
      if losers <> [] then
        Trace.add_attr "collision_losers"
          (String.concat " | "
             (List.map (Confidence.describe_loser ~best) losers)));
  Trace.add_attr "confidence" (Printf.sprintf "%.3f" confidence)

(* [Some answer] ends the search — a decoded hint the dictionary cannot
   resolve answers [no_answer] rather than falling through to the next
   regex; [None] moves on *)
let try_cand db sm hostname c =
  Trace.with_span "apply.cand" ~attrs:[ ("regex", c.source) ] @@ fun () ->
  match Engine.exec c.regex hostname with
  | None ->
      Trace.add_attr "matched" "false";
      None
  | Some groups -> (
      Trace.add_attr "matched" "true";
      Trace.add_attr "groups" (trace_groups groups);
      match Plan.decode c.plan groups with
      | None ->
          Trace.add_attr "decoded" "false";
          None
      | Some ex ->
          Trace.add_attr "hint" ex.Plan.hint;
          Trace.add_attr "hint_type" (Plan.hint_type_name ex.Plan.hint_type);
          Trace.with_span "apply.resolve" @@ fun () ->
          let cities, provenance =
            Evalx.resolve_explained db ~learned:sm.learned ex
          in
          let confidence =
            Confidence.of_resolution ~stats:sm.stats ~learned:sm.learned ex
              (cities, provenance)
          in
          trace_resolve_result cities provenance confidence;
          Some
            (match cities with
            | best :: _ -> { city = Some best; confidence }
            | [] -> no_answer))

let apply db index hostname =
  try
    Trace.with_span "apply" ~attrs:[ ("hostname", hostname) ]
    @@ fun () ->
    let answer =
      match
        Trace.with_span "apply.psl" (fun () ->
            let s = Hoiho_psl.Psl.registered_suffix hostname in
            Trace.add_attr "suffix" (Option.value s ~default:"-");
            s)
      with
      | None -> no_answer
      | Some suffix -> (
          match find index suffix with
          | Some sm when Ncsel.usable sm.classification ->
              (* each candidate's span closes before the next opens, so
                 the spans of successive regexes are siblings *)
              Option.value ~default:no_answer
                (List.find_map (try_cand db sm hostname) sm.cands)
          | _ -> no_answer)
    in
    Trace.add_attr "answer"
      (match answer.city with Some c -> City.describe c | None -> "none");
    answer
  with _ -> no_answer
