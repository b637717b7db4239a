module City = Hoiho_geodb.City
module Json = Hoiho_util.Json

type status = Added | Dropped | Changed

let status_name = function
  | Added -> "added"
  | Dropped -> "dropped"
  | Changed -> "changed"

type entry_change = {
  hint : string;
  hint_type : Plan.hint_type;
  before : Learned.entry option;
  after : Learned.entry option;
}

type suffix_diff = {
  suffix : string;
  status : status;
  classification_before : Ncsel.classification option;
  classification_after : Ncsel.classification option;
  cands_before : string list;
  cands_after : string list;
  cands_changed : bool;
  hints : entry_change list;
  support_before : int;
  support_after : int;
}

type t = {
  suffixes_before : int;
  suffixes_after : int;
  unchanged : int;
  dictionary_changed : bool;
  diffs : suffix_diff list;
}

(* support: routers corroborating the learned overlay — the sum of TP
   counts across entries, the churn signal the Longitudinal study
   tracks (a convention losing support is rotting) *)
let support (sm : Learned_io.suffix_model) =
  List.fold_left
    (fun acc (e : Learned.entry) -> acc + e.Learned.tp)
    0
    (Learned_io.sorted_entries sm.Learned_io.learned)

let cand_sources (sm : Learned_io.suffix_model) =
  List.map (fun (c : Learned_io.cand) -> c.Learned_io.source) sm.Learned_io.cands

(* candidates compared by (source, plan): the compiled regex is a
   deterministic function of the source, so it carries no extra
   information *)
let cands_equal (a : Learned_io.suffix_model) (b : Learned_io.suffix_model) =
  List.length a.Learned_io.cands = List.length b.Learned_io.cands
  && List.for_all2
       (fun (x : Learned_io.cand) (y : Learned_io.cand) ->
         x.Learned_io.source = y.Learned_io.source
         && x.Learned_io.plan = y.Learned_io.plan)
       a.Learned_io.cands b.Learned_io.cands

let entry_changes (before : Learned_io.suffix_model option)
    (after : Learned_io.suffix_model option) =
  let entries = function
    | None -> []
    | Some sm -> Learned_io.sorted_entries sm.Learned_io.learned
  in
  let index l =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (e : Learned.entry) ->
        Hashtbl.replace tbl (e.Learned.hint_type, e.Learned.hint) e)
      l;
    tbl
  in
  let eb = entries before and ea = entries after in
  let tb = index eb and ta = index ea in
  let keys =
    List.sort_uniq compare
      (List.map
         (fun (e : Learned.entry) -> (e.Learned.hint_type, e.Learned.hint))
         (eb @ ea))
  in
  List.filter_map
    (fun ((hint_type, hint) as k) ->
      let b = Hashtbl.find_opt tb k and a = Hashtbl.find_opt ta k in
      if b = a then None else Some { hint; hint_type; before = b; after = a })
    keys

let suffix_diff_of status (before : Learned_io.suffix_model option)
    (after : Learned_io.suffix_model option) =
  let suffix =
    match (before, after) with
    | Some sm, _ | _, Some sm -> sm.Learned_io.suffix
    | None, None -> assert false
  in
  {
    suffix;
    status;
    classification_before =
      Option.map (fun sm -> sm.Learned_io.classification) before;
    classification_after =
      Option.map (fun sm -> sm.Learned_io.classification) after;
    cands_before = (match before with Some sm -> cand_sources sm | None -> []);
    cands_after = (match after with Some sm -> cand_sources sm | None -> []);
    cands_changed =
      (match (before, after) with
      | Some b, Some a -> not (cands_equal b a)
      | _ -> false);
    hints = entry_changes before after;
    support_before = (match before with Some sm -> support sm | None -> 0);
    support_after = (match after with Some sm -> support sm | None -> 0);
  }

let dictionary_changed (a : Learned_io.t) (b : Learned_io.t) =
  match (a.Learned_io.dictionary, b.Learned_io.dictionary) with
  | Learned_io.Default, Learned_io.Default -> false
  | Learned_io.Embedded ca, Learned_io.Embedded cb -> ca <> cb
  | _ -> true

let suffix_model_equal (a : Learned_io.suffix_model)
    (b : Learned_io.suffix_model) =
  a.Learned_io.classification = b.Learned_io.classification
  && cands_equal a b
  && Learned_io.sorted_entries a.Learned_io.learned
     = Learned_io.sorted_entries b.Learned_io.learned

let diff (before : Learned_io.t) (after : Learned_io.t) =
  let index (m : Learned_io.t) =
    match Apply.index m.Learned_io.suffixes with
    | Ok index -> index
    | Error (_, suffix) ->
        invalid_arg
          (Printf.sprintf "Model_diff.diff: duplicate suffix model %S" suffix)
  in
  let tb = index before and ta = index after in
  let suffixes =
    List.sort_uniq compare
      (List.map
         (fun (sm : Learned_io.suffix_model) -> sm.Learned_io.suffix)
         (before.Learned_io.suffixes @ after.Learned_io.suffixes))
  in
  let unchanged = ref 0 in
  let diffs =
    List.filter_map
      (fun s ->
        match (Apply.find tb s, Apply.find ta s) with
        | Some b, Some a when suffix_model_equal b a ->
            incr unchanged;
            None
        | (Some _ as b), (Some _ as a) -> Some (suffix_diff_of Changed b a)
        | (Some _ as b), None -> Some (suffix_diff_of Dropped b None)
        | None, (Some _ as a) -> Some (suffix_diff_of Added None a)
        | None, None -> None)
      suffixes
  in
  {
    suffixes_before = List.length before.Learned_io.suffixes;
    suffixes_after = List.length after.Learned_io.suffixes;
    unchanged = !unchanged;
    dictionary_changed = dictionary_changed before after;
    diffs;
  }

(* ---- JSON view ------------------------------------------------------ *)

let entry_side_to_json = function
  | None -> Json.Null
  | Some (e : Learned.entry) ->
      Json.Obj
        [
          ("city", Json.String (City.key e.Learned.city));
          ("tp", Json.Int e.Learned.tp);
          ("fp", Json.Int e.Learned.fp);
          ("collides", Json.Bool e.Learned.collides);
        ]

let entry_change_to_json c =
  Json.Obj
    [
      ("hint", Json.String c.hint);
      ("type", Json.String (Plan.hint_type_name c.hint_type));
      ("before", entry_side_to_json c.before);
      ("after", entry_side_to_json c.after);
    ]

let classification_to_json = function
  | None -> Json.Null
  | Some c -> Json.String (Learned_io.classification_wire c)

let suffix_diff_to_json d =
  Json.Obj
    [
      ("suffix", Json.String d.suffix);
      ("status", Json.String (status_name d.status));
      ("classification_before", classification_to_json d.classification_before);
      ("classification_after", classification_to_json d.classification_after);
      ( "cands_before",
        Json.List (List.map (fun s -> Json.String s) d.cands_before) );
      ( "cands_after",
        Json.List (List.map (fun s -> Json.String s) d.cands_after) );
      ("cands_changed", Json.Bool d.cands_changed);
      ("hints", Json.List (List.map entry_change_to_json d.hints));
      ("support_before", Json.Int d.support_before);
      ("support_after", Json.Int d.support_after);
    ]

let to_json t =
  Json.Obj
    [
      ("suffixes_before", Json.Int t.suffixes_before);
      ("suffixes_after", Json.Int t.suffixes_after);
      ("unchanged", Json.Int t.unchanged);
      ("dictionary_changed", Json.Bool t.dictionary_changed);
      ("diffs", Json.List (List.map suffix_diff_to_json t.diffs));
    ]

let encode t = Json.to_string (to_json t)

(* ---- text view ------------------------------------------------------ *)

let classification_text = function
  | None -> "-"
  | Some c -> Learned_io.classification_wire c

let entry_stats (e : Learned.entry) =
  Printf.sprintf "%s (tp %d, fp %d%s)"
    (City.key e.Learned.city)
    e.Learned.tp e.Learned.fp
    (if e.Learned.collides then ", collides" else "")

let entry_change_text c =
  let label = Printf.sprintf "%s %s" (Plan.hint_type_name c.hint_type) c.hint in
  match (c.before, c.after) with
  | None, Some e -> Printf.sprintf "    + %s -> %s" label (entry_stats e)
  | Some e, None -> Printf.sprintf "    - %s -> %s" label (entry_stats e)
  | Some b, Some a ->
      Printf.sprintf "    ~ %s -> %s => %s" label (entry_stats b) (entry_stats a)
  | None, None -> assert false

let suffix_diff_text d =
  let head =
    match d.status with
    | Added ->
        Printf.sprintf "+ %s [%s] support %d" d.suffix
          (classification_text d.classification_after)
          d.support_after
    | Dropped ->
        Printf.sprintf "- %s [%s] support %d" d.suffix
          (classification_text d.classification_before)
          d.support_before
    | Changed ->
        let cls =
          if d.classification_before = d.classification_after then
            classification_text d.classification_after
          else
            Printf.sprintf "%s -> %s"
              (classification_text d.classification_before)
              (classification_text d.classification_after)
        in
        let sup =
          if d.support_before = d.support_after then
            string_of_int d.support_after
          else Printf.sprintf "%d -> %d" d.support_before d.support_after
        in
        Printf.sprintf "~ %s [%s] support %s" d.suffix cls sup
  in
  let regexes =
    if d.cands_changed then
      [
        Printf.sprintf "    regexes changed (%d -> %d)"
          (List.length d.cands_before)
          (List.length d.cands_after);
      ]
    else []
  in
  (head :: regexes) @ List.map entry_change_text d.hints

let render_text t =
  let added, dropped, changed =
    List.fold_left
      (fun (a, d, c) x ->
        match x.status with
        | Added -> (a + 1, d, c)
        | Dropped -> (a, d + 1, c)
        | Changed -> (a, d, c + 1))
      (0, 0, 0) t.diffs
  in
  let header =
    Printf.sprintf
      "model diff: %d -> %d suffixes (%d unchanged, %d added, %d dropped, %d \
       changed); dictionary %s"
      t.suffixes_before t.suffixes_after t.unchanged added dropped changed
      (if t.dictionary_changed then "changed" else "unchanged")
  in
  String.concat "\n" (header :: List.concat_map suffix_diff_text t.diffs) ^ "\n"
