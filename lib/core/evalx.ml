module Engine = Hoiho_rx.Engine
module City = Hoiho_geodb.City
module Db = Hoiho_geodb.Db

type outcome = TP | FP | FN | UNK | Skip

type counts = { tp : int; fp : int; fn : int; unk : int }

let zero = { tp = 0; fp = 0; fn = 0; unk = 0 }

let add_outcome c = function
  | TP -> { c with tp = c.tp + 1 }
  | FP -> { c with fp = c.fp + 1 }
  | FN -> { c with fn = c.fn + 1 }
  | UNK -> { c with unk = c.unk + 1 }
  | Skip -> c

let atp c = c.tp - (c.fp + c.fn + c.unk)

let ppv c =
  if c.tp + c.fp = 0 then 0.0
  else float_of_int c.tp /. float_of_int (c.tp + c.fp)

type hit = {
  sample : Apparent.sample;
  outcome : outcome;
  extraction : Plan.extraction option;
  location : City.t option;
}

type provenance = Overlay | Dictionary

let provenance_name = function
  | Overlay -> "learned-overlay"
  | Dictionary -> "dictionary"

let resolve_explained db ?learned (ex : Plan.extraction) =
  let from_overlay =
    match learned with
    | None -> None
    | Some l -> (
        match Learned.find l ex.Plan.hint_type ex.Plan.hint with
        | Some entry -> Some [ entry.Learned.city ]
        | None -> None)
  in
  match from_overlay with
  | Some cities -> (cities, Overlay)
  | None ->
      let cities = Dicts.lookup db ex.Plan.hint_type ex.Plan.hint in
      let narrowed =
        List.filter (Dicts.in_region ~cc:ex.Plan.cc ~state:ex.Plan.state) cities
      in
      ((if narrowed <> [] then narrowed else cities), Dictionary)

(* the stage-2 expectation this extraction corresponds to, if any *)
let matching_tag (sample : Apparent.sample) hint =
  List.find_opt (fun (t : Apparent.tag) -> t.Apparent.hint = hint) sample.Apparent.tags

let eval_sample consist db ?learned (cand : Cand.t) (sample : Apparent.sample) =
  let tagged = sample.Apparent.tags <> [] in
  match Engine.exec cand.Cand.regex sample.Apparent.hostname with
  | None ->
      {
        sample;
        outcome = (if tagged then FN else Skip);
        extraction = None;
        location = None;
      }
  | Some groups -> (
      match Plan.decode cand.Cand.plan groups with
      | None ->
          { sample; outcome = (if tagged then FN else Skip); extraction = None; location = None }
      | Some ex ->
          let missing_region =
            match matching_tag sample ex.Plan.hint with
            | Some tag ->
                (tag.Apparent.cc <> None && ex.Plan.cc = None)
                || (tag.Apparent.state <> None && ex.Plan.state = None)
            | None -> false
          in
          if missing_region then
            { sample; outcome = FN; extraction = Some ex; location = None }
          else begin
            let cities = fst (resolve_explained db ?learned ex) in
            if cities = [] then
              { sample; outcome = UNK; extraction = Some ex; location = None }
            else begin
              let consistent =
                List.filter
                  (Consist.city_consistent consist sample.Apparent.router)
                  cities
              in
              match consistent with
              | best :: _ ->
                  { sample; outcome = TP; extraction = Some ex; location = Some best }
              | [] ->
                  {
                    sample;
                    outcome = FP;
                    extraction = Some ex;
                    location = None;
                  }
            end
          end)

(* candidate-scoring loops only rank by counts; skip building the hits
   list (each hit dies young instead of being retained) *)
let eval_cand_counts consist db ?learned cand samples =
  List.fold_left
    (fun c sample ->
      add_outcome c (eval_sample consist db ?learned cand sample).outcome)
    zero samples

let unique_tp_hints hits =
  List.filter_map
    (fun h ->
      match (h.outcome, h.extraction) with
      | TP, Some ex -> Some ex.Plan.hint
      | _ -> None)
    hits
  |> List.sort_uniq compare
