module Json = Hoiho_util.Json
module City = Hoiho_geodb.City
module Db = Hoiho_geodb.Db
module Engine = Hoiho_rx.Engine

(* v2 added the per-suffix confidence stats block; v3 adds the expected
   calibration profile the serving drift monitor compares live traffic
   against (DESIGN.md §14). v1/v2 snapshots still decode: neutral stats
   for v1, no stored profile (drift monitoring disabled) below v3. *)
let format_version = 3
let oldest_readable_version = 1

type cand = Apply.cand = { source : string; plan : Plan.t; regex : Engine.t }

type suffix_model = Apply.suffix_model = {
  suffix : string;
  classification : Ncsel.classification;
  cands : cand list;
  learned : Learned.t;
  stats : Confidence.suffix_stats;
}

type dictionary = Default | Embedded of City.t list

type t = {
  dictionary : dictionary;
  suffixes : suffix_model list;
  calibration : float array option;
  metrics : Json.t;
}

type error =
  | Syntax of string
  | Unknown_version of int
  | Schema of { path : string; expected : string; got : string }

let error_to_string = function
  | Syntax msg -> "syntax error: " ^ msg
  | Unknown_version v ->
      Printf.sprintf
        "unknown format version %d (this build reads versions %d-%d)" v
        oldest_readable_version format_version
  | Schema { path; expected; got } ->
      Printf.sprintf "schema error at %s: expected %s, got %s" path expected got

(* --- wire names --- *)

let hint_type_wire = function
  | Plan.Iata -> "iata"
  | Plan.Icao -> "icao"
  | Plan.Locode -> "locode"
  | Plan.Clli -> "clli"
  | Plan.CityName -> "cityname"
  | Plan.FacilityAddr -> "facility"

let hint_type_of_wire = function
  | "iata" -> Some Plan.Iata
  | "icao" -> Some Plan.Icao
  | "locode" -> Some Plan.Locode
  | "clli" -> Some Plan.Clli
  | "cityname" -> Some Plan.CityName
  | "facility" -> Some Plan.FacilityAddr
  | _ -> None

let elem_wire = function
  | Plan.Hint ht -> hint_type_wire ht
  | Plan.ClliA -> "clli_a"
  | Plan.ClliB -> "clli_b"
  | Plan.Cc -> "cc"
  | Plan.State -> "state"

let elem_of_wire = function
  | "clli_a" -> Some Plan.ClliA
  | "clli_b" -> Some Plan.ClliB
  | "cc" -> Some Plan.Cc
  | "state" -> Some Plan.State
  | s -> Option.map (fun ht -> Plan.Hint ht) (hint_type_of_wire s)

let classification_wire = function
  | Ncsel.Good -> "good"
  | Ncsel.Promising -> "promising"
  | Ncsel.Poor -> "poor"

let classification_of_wire = function
  | "good" -> Some Ncsel.Good
  | "promising" -> Some Ncsel.Promising
  | "poor" -> Some Ncsel.Poor
  | _ -> None

(* --- encoding --- *)

let opt_field name = function
  | None -> []
  | Some s -> [ (name, Json.String s) ]

let city_to_json (c : City.t) =
  Json.Obj
    ([
       ("name", Json.String c.City.name);
       ("cc", Json.String c.City.cc);
     ]
    @ opt_field "state" c.City.state
    @ [
        ("lat", Json.Float c.City.coord.Hoiho_geo.Coord.lat);
        ("lon", Json.Float c.City.coord.Hoiho_geo.Coord.lon);
        ("pop", Json.Int c.City.population);
        ("iata", Json.List (List.map (fun s -> Json.String s) c.City.iata));
        ("icao", Json.List (List.map (fun s -> Json.String s) c.City.icao));
      ]
    @ opt_field "locode" c.City.locode
    @ opt_field "clli" c.City.clli
    @ [
        ( "facilities",
          Json.List
            (List.map
               (fun (name, addr) ->
                 Json.List [ Json.String name; Json.String addr ])
               c.City.facilities) );
      ])

let entry_to_json (e : Learned.entry) =
  Json.Obj
    [
      ("hint", Json.String e.Learned.hint);
      ("type", Json.String (hint_type_wire e.Learned.hint_type));
      ("city", city_to_json e.Learned.city);
      ("tp", Json.Int e.Learned.tp);
      ("fp", Json.Int e.Learned.fp);
      ("collides", Json.Bool e.Learned.collides);
    ]

let cand_to_json c =
  Json.Obj
    [
      ("source", Json.String c.source);
      ("plan", Json.List (List.map (fun e -> Json.String (elem_wire e)) c.plan));
    ]

(* stable order regardless of Hashtbl iteration *)
let sorted_entries learned =
  List.sort
    (fun (a : Learned.entry) (b : Learned.entry) ->
      compare
        (a.Learned.hint_type, a.Learned.hint)
        (b.Learned.hint_type, b.Learned.hint))
    (Learned.entries learned)

let stats_to_json (s : Confidence.suffix_stats) =
  Json.Obj
    [
      ("tp", Json.Int s.Confidence.tp);
      ("fp", Json.Int s.Confidence.fp);
      ("fn", Json.Int s.Confidence.fn);
      ("unk", Json.Int s.Confidence.unk);
      ("rtt_agreement", Json.Float s.Confidence.rtt_agreement);
    ]

let suffix_to_json sm =
  Json.Obj
    [
      ("suffix", Json.String sm.suffix);
      ("classification", Json.String (classification_wire sm.classification));
      ("cands", Json.List (List.map cand_to_json sm.cands));
      ("learned", Json.List (List.map entry_to_json (sorted_entries sm.learned)));
      ("stats", stats_to_json sm.stats);
    ]

let to_json t =
  let dictionary =
    match t.dictionary with
    | Default -> Json.Obj [ ("provenance", Json.String "default") ]
    | Embedded cities ->
        Json.Obj
          [
            ("provenance", Json.String "embedded");
            ("cities", Json.List (List.map city_to_json cities));
          ]
  in
  Json.Obj
    ([
       ("format_version", Json.Int format_version);
       ("generator", Json.String "hoiho");
       ("dictionary", dictionary);
       ("suffixes", Json.List (List.map suffix_to_json t.suffixes));
     ]
    @ (match t.calibration with
      | None -> []
      | Some masses ->
          [
            ( "calibration",
              Json.List
                (List.map (fun m -> Json.Float m) (Array.to_list masses)) );
          ])
    @ [ ("metrics", t.metrics) ])

let encode t = Json.to_string (to_json t)

(* --- decoding --- *)

(* decode combinators: thread a path for error messages, short-circuit
   with result. Exceptions cannot escape: every leaf produces a typed
   error, and [decode] additionally fences the whole walk. *)

let ( let* ) r f = Result.bind r f

let schema path expected got = Error (Schema { path; expected; got })

let field path name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> (
      match json with
      | Json.Obj _ -> schema (path ^ "." ^ name) "present field" "absent"
      | j -> schema path "object" (Json.kind j))

let opt_string_field path name json =
  match Json.member name json with
  | None -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some j -> schema (path ^ "." ^ name) "string" (Json.kind j)

let as_string path = function
  | Json.String s -> Ok s
  | j -> schema path "string" (Json.kind j)

let as_int path = function
  | Json.Int i -> Ok i
  | j -> schema path "int" (Json.kind j)

let as_bool path = function
  | Json.Bool b -> Ok b
  | j -> schema path "bool" (Json.kind j)

let as_float path = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | j -> schema path "number" (Json.kind j)

let as_list path = function
  | Json.List l -> Ok l
  | j -> schema path "list" (Json.kind j)

let string_field path name json =
  let* v = field path name json in
  as_string (path ^ "." ^ name) v

let int_field path name json =
  let* v = field path name json in
  as_int (path ^ "." ^ name) v

let map_items path f items =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
        let* v = f (Printf.sprintf "%s[%d]" path i) item in
        go (i + 1) (v :: acc) rest
  in
  go 0 [] items

let string_list path json =
  let* items = as_list path json in
  map_items path as_string items

let city_of_json path json =
  let* name = string_field path "name" json in
  let* cc = string_field path "cc" json in
  let* state = opt_string_field path "state" json in
  let* lat = Result.bind (field path "lat" json) (as_float (path ^ ".lat")) in
  let* lon = Result.bind (field path "lon" json) (as_float (path ^ ".lon")) in
  let* pop = int_field path "pop" json in
  let* iata = Result.bind (field path "iata" json) (string_list (path ^ ".iata")) in
  let* icao = Result.bind (field path "icao" json) (string_list (path ^ ".icao")) in
  let* locode = opt_string_field path "locode" json in
  let* clli = opt_string_field path "clli" json in
  let* fac_items =
    Result.bind (field path "facilities" json) (as_list (path ^ ".facilities"))
  in
  let* facilities =
    map_items (path ^ ".facilities")
      (fun p item ->
        let* pair = as_list p item in
        match pair with
        | [ a; b ] ->
            let* name = as_string (p ^ "[0]") a in
            let* addr = as_string (p ^ "[1]") b in
            Ok (name, addr)
        | l -> schema p "2-element list" (Printf.sprintf "%d-element list" (List.length l)))
      fac_items
  in
  match Hoiho_geo.Coord.make ~lat ~lon with
  | coord ->
      Ok
        {
          City.name;
          cc;
          state;
          coord;
          population = pop;
          iata;
          icao;
          locode;
          clli;
          facilities;
        }
  | exception Invalid_argument _ ->
      schema path "coordinates in range" (Printf.sprintf "(%g, %g)" lat lon)

let entry_of_json path json =
  let* hint = string_field path "hint" json in
  let* ht_name = string_field path "type" json in
  let* hint_type =
    match hint_type_of_wire ht_name with
    | Some ht -> Ok ht
    | None -> schema (path ^ ".type") "geohint type name" (Printf.sprintf "%S" ht_name)
  in
  let* city = Result.bind (field path "city" json) (city_of_json (path ^ ".city")) in
  let* tp = int_field path "tp" json in
  let* fp = int_field path "fp" json in
  let* collides = Result.bind (field path "collides" json) (as_bool (path ^ ".collides")) in
  Ok { Learned.hint; hint_type; city; tp; fp; collides }

let cand_of_json path json =
  let* source = string_field path "source" json in
  let* plan_items = Result.bind (field path "plan" json) (as_list (path ^ ".plan")) in
  let* plan =
    map_items (path ^ ".plan")
      (fun p item ->
        let* name = as_string p item in
        match elem_of_wire name with
        | Some e -> Ok e
        | None -> schema p "plan element name" (Printf.sprintf "%S" name))
      plan_items
  in
  match Engine.compile_string source with
  | Error msg -> schema (path ^ ".source") "compilable regex" msg
  | Ok regex ->
      if Engine.group_count regex <> List.length plan then
        schema path
          (Printf.sprintf "plan of %d element(s) matching the regex's capture groups"
             (Engine.group_count regex))
          (Printf.sprintf "%d element(s)" (List.length plan))
      else Ok { source; plan; regex }

let stats_of_json path json =
  let* tp = int_field path "tp" json in
  let* fp = int_field path "fp" json in
  let* fn = int_field path "fn" json in
  let* unk = int_field path "unk" json in
  let* rtt_agreement =
    Result.bind
      (field path "rtt_agreement" json)
      (as_float (path ^ ".rtt_agreement"))
  in
  if rtt_agreement < 0.0 || rtt_agreement > 1.0 then
    schema (path ^ ".rtt_agreement") "float in [0,1]"
      (Printf.sprintf "%g" rtt_agreement)
  else Ok { Confidence.tp; fp; fn; unk; rtt_agreement }

let suffix_of_json ~version path json =
  let* suffix = string_field path "suffix" json in
  let* cls_name = string_field path "classification" json in
  let* classification =
    match classification_of_wire cls_name with
    | Some c -> Ok c
    | None ->
        schema (path ^ ".classification") "good|promising|poor"
          (Printf.sprintf "%S" cls_name)
  in
  let* cand_items = Result.bind (field path "cands" json) (as_list (path ^ ".cands")) in
  let* cands = map_items (path ^ ".cands") cand_of_json cand_items in
  let* entry_items =
    Result.bind (field path "learned" json) (as_list (path ^ ".learned"))
  in
  let* entries = map_items (path ^ ".learned") entry_of_json entry_items in
  let learned = Learned.empty () in
  List.iter (Learned.add learned) entries;
  (* v1 predates the stats block: decode with the neutral stats, so old
     snapshots keep serving (their answers score from the 0.5 prior) *)
  let* stats =
    if version < 2 then Ok Confidence.no_stats
    else Result.bind (field path "stats" json) (stats_of_json (path ^ ".stats"))
  in
  Ok { suffix; classification; cands; learned; stats }

let of_json json =
  let* version = int_field "$" "format_version" json in
  if version < oldest_readable_version || version > format_version then
    Error (Unknown_version version)
  else
    let* dict_json = field "$" "dictionary" json in
    let* provenance = string_field "$.dictionary" "provenance" dict_json in
    let* dictionary =
      match provenance with
      | "default" -> Ok Default
      | "embedded" ->
          let* city_items =
            Result.bind
              (field "$.dictionary" "cities" dict_json)
              (as_list "$.dictionary.cities")
          in
          let* cities = map_items "$.dictionary.cities" city_of_json city_items in
          Ok (Embedded cities)
      | other ->
          schema "$.dictionary.provenance" "default|embedded"
            (Printf.sprintf "%S" other)
    in
    let* suffix_items =
      Result.bind (field "$" "suffixes" json) (as_list "$.suffixes")
    in
    let* suffixes =
      map_items "$.suffixes" (suffix_of_json ~version) suffix_items
    in
    (* duplicate suffixes are a corrupt snapshot: a server indexing
       by suffix would silently drop one model's regexes and learned
       hints, and which half survives would depend on load order *)
    let* () =
      match Apply.index suffixes with
      | Ok _ -> Ok ()
      | Error (i, suffix) ->
          schema
            (Printf.sprintf "$.suffixes[%d].suffix" i)
            "unique suffix"
            (Printf.sprintf "duplicate %S" suffix)
    in
    (* v3 added the expected calibration profile; below v3 (or absent —
       the field is optional even in v3) drift monitoring is simply
       disabled, but a present profile must be well-formed: exactly 10
       decile masses, each in [0,1] *)
    let* calibration =
      match Json.member "calibration" json with
      | None -> Ok None
      | Some j ->
          let* items = as_list "$.calibration" j in
          let* masses =
            map_items "$.calibration"
              (fun p item ->
                let* m = as_float p item in
                if m < 0.0 || m > 1.0 then
                  schema p "decile mass in [0,1]" (Printf.sprintf "%g" m)
                else Ok m)
              items
          in
          if List.length masses <> 10 then
            schema "$.calibration" "10 decile masses"
              (Printf.sprintf "%d element(s)" (List.length masses))
          else Ok (Some (Array.of_list masses))
    in
    let metrics =
      match Json.member "metrics" json with Some m -> m | None -> Json.Obj []
    in
    Ok { dictionary; suffixes; calibration; metrics }

let decode s =
  match Json.parse s with
  | Error msg -> Error (Syntax msg)
  | Ok json -> (
      (* the walk above is total, but fence it anyway: a decode must
         never raise, whatever the input *)
      try of_json json
      with e -> Error (Syntax ("unexpected decoder failure: " ^ Printexc.to_string e)))

(* --- pipeline extraction / files --- *)

let of_pipeline (p : Pipeline.t) =
  let suffixes =
    List.filter_map Pipeline.suffix_model_of_result p.Pipeline.results
  in
  let dictionary =
    (* Db.default is memoized, so physical equality identifies it *)
    if p.Pipeline.db == Db.default () then Default
    else Embedded (Db.cities p.Pipeline.db)
  in
  let metrics =
    match Json.parse (Hoiho_obs.Obs.to_json p.Pipeline.metrics) with
    | Ok j -> j
    | Error _ -> Json.Obj []
  in
  let calibration =
    Some (Confidence.expected_profile (List.map (fun sm -> sm.stats) suffixes))
  in
  { dictionary; suffixes; calibration; metrics }

let db t =
  match t.dictionary with
  | Default -> Db.default ()
  | Embedded cities -> Db.of_cities cities

(* tmp + rename: a reload racing the write reads the old snapshot or
   the new one, never a truncated one *)
let save path t = Hoiho_obs.Obs.write_file_atomic path (encode t ^ "\n")

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> decode s
  | exception Sys_error msg -> Error (Syntax msg)

(* --- equality (for round-trip properties) --- *)

let equal_cand a b = a.source = b.source && a.plan = b.plan

let equal_suffix a b =
  a.suffix = b.suffix
  && a.classification = b.classification
  && List.equal equal_cand a.cands b.cands
  && sorted_entries a.learned = sorted_entries b.learned
  && a.stats = b.stats

let equal a b =
  (match (a.dictionary, b.dictionary) with
  | Default, Default -> true
  | Embedded ca, Embedded cb -> ca = cb
  | _ -> false)
  && List.equal equal_suffix a.suffixes b.suffixes
  && Option.equal (fun x y -> x = y) a.calibration b.calibration
  && Json.equal a.metrics b.metrics
