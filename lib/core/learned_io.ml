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
  | Schema of Json.error

let error_to_string = function
  | Syntax msg -> "syntax error: " ^ msg
  | Unknown_version v ->
      Printf.sprintf
        "unknown format version %d (this build reads versions %d-%d)" v
        oldest_readable_version format_version
  | Schema e -> "schema error at " ^ Json.error_to_string e

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

let ( let* ) = Result.bind

let unit_interval f = f >= 0.0 && f <= 1.0

let city path json =
  let* name = Json.field "name" Json.string path json in
  let* cc = Json.field "cc" Json.string path json in
  let* state = Json.field_opt "state" Json.string path json in
  let* lat = Json.field "lat" Json.number path json in
  let* lon = Json.field "lon" Json.number path json in
  let* population = Json.field "pop" Json.int path json in
  let* iata = Json.field "iata" (Json.list Json.string) path json in
  let* icao = Json.field "icao" (Json.list Json.string) path json in
  let* locode = Json.field_opt "locode" Json.string path json in
  let* clli = Json.field_opt "clli" Json.string path json in
  let* facilities =
    Json.field "facilities" (Json.list (Json.pair Json.string Json.string)) path json
  in
  match Hoiho_geo.Coord.make ~lat ~lon with
  | coord ->
      Ok { City.name; cc; state; coord; population; iata; icao; locode; clli; facilities }
  | exception Invalid_argument _ ->
      Json.fail path ~expected:"coordinates in range"
        ~got:(Printf.sprintf "(%g, %g)" lat lon)

let entry path json =
  let* hint = Json.field "hint" Json.string path json in
  let* hint_type =
    Json.field "type" (Json.enum "geohint type name" hint_type_of_wire) path json
  in
  let* city = Json.field "city" city path json in
  let* tp = Json.field "tp" Json.int path json in
  let* fp = Json.field "fp" Json.int path json in
  let* collides = Json.field "collides" Json.bool path json in
  Ok { Learned.hint; hint_type; city; tp; fp; collides }

let regex path json =
  let* source = Json.string path json in
  match Engine.compile_string source with
  | Ok regex -> Ok (source, regex)
  | Error msg -> Json.fail path ~expected:"compilable regex" ~got:msg

let cand path json =
  let* source, regex = Json.field "source" regex path json in
  let* plan =
    Json.field "plan" (Json.list (Json.enum "plan element name" elem_of_wire)) path json
  in
  if Engine.group_count regex <> List.length plan then
    Json.fail path
      ~expected:
        (Printf.sprintf "plan of %d element(s) matching the regex's capture groups"
           (Engine.group_count regex))
      ~got:(Printf.sprintf "%d element(s)" (List.length plan))
  else Ok { source; plan; regex }

let stats path json =
  let* tp = Json.field "tp" Json.int path json in
  let* fp = Json.field "fp" Json.int path json in
  let* fn = Json.field "fn" Json.int path json in
  let* unk = Json.field "unk" Json.int path json in
  let* rtt_agreement =
    Json.field "rtt_agreement" (Json.check "float in [0,1]" unit_interval Json.number)
      path json
  in
  Ok { Confidence.tp; fp; fn; unk; rtt_agreement }

let suffix_model ~version path json =
  let* suffix = Json.field "suffix" Json.string path json in
  let* classification =
    Json.field "classification"
      (Json.enum "good|promising|poor" classification_of_wire)
      path json
  in
  let* cands = Json.field "cands" (Json.list cand) path json in
  let* entries = Json.field "learned" (Json.list entry) path json in
  let learned = Learned.empty () in
  List.iter (Learned.add learned) entries;
  (* v1 predates the stats block: decode with the neutral stats, so old
     snapshots keep serving (their answers score from the 0.5 prior) *)
  let* stats =
    if version < 2 then Ok Confidence.no_stats else Json.field "stats" stats path json
  in
  Ok { suffix; classification; cands; learned; stats }

let dictionary path json =
  let* provenance =
    Json.field "provenance"
      (Json.enum "default|embedded" (function
        | "default" -> Some `Default
        | "embedded" -> Some `Embedded
        | _ -> None))
      path json
  in
  match provenance with
  | `Default -> Ok Default
  | `Embedded ->
      Result.map (fun cities -> Embedded cities)
        (Json.field "cities" (Json.list city) path json)

(* v3 added the expected calibration profile; below v3 (or absent — the
   field is optional even in v3) drift monitoring is simply disabled,
   but a present profile must be well-formed: exactly 10 decile masses,
   each in [0,1] *)
let calibration path json =
  let* masses =
    Json.list (Json.check "decile mass in [0,1]" unit_interval Json.number) path json
  in
  if List.length masses <> 10 then
    Json.fail path ~expected:"10 decile masses"
      ~got:(Printf.sprintf "%d element(s)" (List.length masses))
  else Ok (Array.of_list masses)

let of_json json =
  match Json.field "format_version" Json.int Json.root json with
  | Error e -> Error (Schema e)
  | Ok version when version < oldest_readable_version || version > format_version ->
      Error (Unknown_version version)
  | Ok version ->
      Result.map_error
        (fun e -> Schema e)
        (let* dictionary = Json.field "dictionary" dictionary Json.root json in
         let* suffixes =
           Json.field "suffixes" (Json.list (suffix_model ~version)) Json.root json
         in
         (* duplicate suffixes are a corrupt snapshot: a server indexing
            by suffix would silently drop one model's regexes and learned
            hints, and which half survives would depend on load order *)
         let* () =
           match Apply.index suffixes with
           | Ok _ -> Ok ()
           | Error (i, suffix) ->
               Error
                 {
                   Json.path = Printf.sprintf "$.suffixes[%d].suffix" i;
                   expected = "unique suffix";
                   got = Printf.sprintf "duplicate %S" suffix;
                 }
         in
         let* calibration = Json.field_opt "calibration" calibration Json.root json in
         let metrics = Option.value (Json.member "metrics" json) ~default:(Json.Obj []) in
         Ok { dictionary; suffixes; calibration; metrics })

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
    |> List.sort (fun a b -> String.compare a.suffix b.suffix)
  in
  let dictionary =
    (* Db.default is memoized, so physical equality identifies it *)
    if p.Pipeline.db == Db.default () then Default
    else Embedded (Db.cities p.Pipeline.db)
  in
  let metrics = Hoiho_obs.Obs.to_json p.Pipeline.metrics in
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

let max_file_bytes = 64 * 1024 * 1024

let load path =
  match Json.read_file ~max_bytes:max_file_bytes ~what:"a model snapshot" path with
  | Ok s -> decode s
  | Error msg -> Error (Syntax msg)

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
