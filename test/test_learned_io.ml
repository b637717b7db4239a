(* Snapshot codec: QCheck round-trip (encode ∘ decode = id over
   generated models carrying generated Learned.t overlays) and
   table-driven strict-decode failures — truncation, unknown version,
   wrong field types must each yield a typed error, never an
   exception. *)

module Learned_io = Hoiho.Learned_io
module Learned = Hoiho.Learned
module Plan = Hoiho.Plan
module Ncsel = Hoiho.Ncsel
module City = Hoiho_geodb.City
module Json = Hoiho_util.Json

open QCheck

(* --- generators --- *)

let gen_lower n = Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.return n)
let gen_word = Gen.(int_range 3 8 >>= gen_lower)

let gen_city =
  Gen.(
    map
      (fun ((name, cc, state, lat, lon), (pop, iata, icao, locode, clli, fac)) ->
        {
          City.name;
          cc;
          state;
          coord = Hoiho_geo.Coord.make ~lat ~lon;
          population = pop;
          iata;
          icao;
          locode;
          clli;
          facilities = fac;
        })
      (tup2
         (tup5
            (map (String.concat " ") (list_size (int_range 1 2) gen_word))
            (gen_lower 2)
            (opt (gen_lower 2))
            (float_range (-89.0) 89.0)
            (float_range (-179.0) 179.0))
         (tup6 nat
            (list_size (int_range 0 2) (gen_lower 3))
            (list_size (int_range 0 2) (gen_lower 4))
            (opt (gen_lower 3))
            (opt (gen_lower 6))
            (list_size (int_range 0 2) (tup2 gen_word gen_word)))))

let gen_hint_type =
  Gen.oneofl
    [ Plan.Iata; Plan.Icao; Plan.Locode; Plan.Clli; Plan.CityName; Plan.FacilityAddr ]

let gen_entry =
  Gen.(
    map (fun (hint, hint_type, city, tp, fp, collides) ->
        { Learned.hint; hint_type; city; tp; fp; collides })
      (tup6 gen_word gen_hint_type gen_city (int_bound 50) (int_bound 50) bool))

let gen_learned =
  Gen.(
    map (fun entries ->
        let t = Learned.empty () in
        List.iter (Learned.add t) entries;
        t)
      (list_size (int_range 0 8) gen_entry))

let gen_elem =
  Gen.oneofl
    [ Plan.Hint Plan.Iata; Plan.Hint Plan.CityName; Plan.Hint Plan.Clli;
      Plan.ClliA; Plan.ClliB; Plan.Cc; Plan.State ]

(* a compilable source whose capture-group count matches the plan *)
let gen_cand =
  Gen.(
    map2 (fun plan suffix ->
        let caps =
          String.concat {|\-|} (List.map (fun _ -> {|([a-z]+)|}) plan)
        in
        let source =
          Printf.sprintf {|^%s%s\.%s\.net$|} (if plan = [] then "r" else "") caps
            suffix
        in
        {
          Learned_io.source;
          plan;
          regex = Hoiho_rx.Engine.compile_exn source;
        })
      (list_size (int_range 0 3) gen_elem)
      gen_word)

let gen_stats =
  Gen.(
    map (fun (tp, fp, fn, unk, agreement) ->
        {
          Hoiho.Confidence.tp;
          fp;
          fn;
          unk;
          (* a representable-in-JSON fraction, like the real computation
             produces (agree/both) *)
          rtt_agreement = float_of_int agreement /. 16.0;
        })
      (tup5 (int_bound 500) (int_bound 100) (int_bound 100) (int_bound 100)
         (int_bound 16)))

let gen_suffix_model =
  Gen.(
    map (fun (suffix, classification, cands, learned, stats) ->
        { Learned_io.suffix; classification; cands; learned; stats })
      (tup5
         (map2 (Printf.sprintf "%s.%s") gen_word (oneofl [ "net"; "com"; "org" ]))
         (oneofl [ Ncsel.Good; Ncsel.Promising; Ncsel.Poor ])
         (list_size (int_range 0 3) gen_cand)
         gen_learned gen_stats))

let gen_model =
  Gen.(
    map (fun (dict_cities, suffixes, metric_counts) ->
        (* decode rejects duplicate suffixes (a corrupt snapshot), so a
           valid generated model must carry each suffix once *)
        let suffixes =
          let seen = Hashtbl.create 8 in
          List.filter
            (fun (sm : Learned_io.suffix_model) ->
              if Hashtbl.mem seen sm.Learned_io.suffix then false
              else begin
                Hashtbl.add seen sm.Learned_io.suffix ();
                true
              end)
            suffixes
        in
        {
          Learned_io.dictionary =
            (match dict_cities with
            | None -> Learned_io.Default
            | Some cities -> Learned_io.Embedded cities);
          suffixes;
          (* what save-model stores: the profile derived from the
             suffixes' stats (and half the time None, like a pre-v3
             snapshot), so round-trips cover both arms of the option *)
          calibration =
            (if List.length metric_counts mod 2 = 0 then
               Some
                 (Hoiho.Confidence.expected_profile
                    (List.map
                       (fun (sm : Learned_io.suffix_model) ->
                         sm.Learned_io.stats)
                       suffixes))
             else None);
          metrics =
            Json.Obj
              [
                ( "counters",
                  Json.Obj
                    (List.mapi
                       (fun i n -> (Printf.sprintf "c%d" i, Json.Int n))
                       metric_counts) );
              ];
        })
      (tup3
         (opt (list_size (int_range 0 4) gen_city))
         (list_size (int_range 0 3) gen_suffix_model)
         (list_size (int_range 0 3) nat)))

let arb_model = make ~print:(fun m -> Learned_io.encode m) gen_model

(* --- properties --- *)

let roundtrip =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:1000 ~name:"encode o decode = id" arb_model (fun m ->
         match Learned_io.decode (Learned_io.encode m) with
         | Ok m' -> Learned_io.equal m m'
         | Error e -> Test.fail_report (Learned_io.error_to_string e)))

let encode_stable =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:200 ~name:"encode is stable through a round-trip" arb_model
       (fun m ->
         match Learned_io.decode (Learned_io.encode m) with
         | Ok m' -> String.equal (Learned_io.encode m) (Learned_io.encode m')
         | Error e -> Test.fail_report (Learned_io.error_to_string e)))

(* --- strict decode failures --- *)

let sample_model () =
  {
    Learned_io.dictionary = Learned_io.Default;
    suffixes =
      [
        {
          Learned_io.suffix = "example.net";
          classification = Ncsel.Good;
          cands =
            [
              {
                Learned_io.source = {|^([a-z]+)\.example\.net$|};
                plan = [ Plan.Hint Plan.Iata ];
                regex = Hoiho_rx.Engine.compile_exn {|^([a-z]+)\.example\.net$|};
              };
            ];
          learned = Learned.empty ();
          stats =
            {
              Hoiho.Confidence.tp = 12;
              fp = 1;
              fn = 0;
              unk = 2;
              rtt_agreement = 0.75;
            };
        };
      ];
    calibration = None;
    metrics = Json.Obj [];
  }

let is_syntax = function Error (Learned_io.Syntax _) -> true | _ -> false
let is_schema = function Error (Learned_io.Schema _) -> true | _ -> false

let set_field name v = function
  | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fields)
  | j -> j

let reencode patch =
  let enc = Learned_io.encode (sample_model ()) in
  match Json.parse enc with
  | Error m -> Alcotest.failf "sample did not reparse: %s" m
  | Ok j -> Json.to_string (patch j)

let decode_failures () =
  let enc = Learned_io.encode (sample_model ()) in
  (* sanity: the sample decodes *)
  (match Learned_io.decode enc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "sample must decode: %s" (Learned_io.error_to_string e));
  let cases =
    [
      ("empty input", "", is_syntax);
      ("truncated file", String.sub enc 0 (String.length enc / 2), is_syntax);
      ("truncated mid-token", String.sub enc 0 3, is_syntax);
      ("trailing garbage", enc ^ "xx", is_syntax);
      ("not json at all", "not a model", is_syntax);
      ( "unknown format version",
        reencode (set_field "format_version" (Json.Int 999)),
        function
        | Error (Learned_io.Unknown_version 999) -> true
        | _ -> false );
      ( "version of wrong type",
        reencode (set_field "format_version" (Json.String "one")),
        is_schema );
      ("missing version", {|{"suffixes":[]}|}, is_schema);
      ("suffixes of wrong type", reencode (set_field "suffixes" (Json.Int 3)), is_schema);
      ( "dictionary of wrong type",
        reencode (set_field "dictionary" (Json.List [])),
        is_schema );
      ( "bad provenance",
        reencode
          (set_field "dictionary"
             (Json.Obj [ ("provenance", Json.String "martian") ])),
        is_schema );
      ("document is a list", "[1,2,3]", is_schema);
      ("document is a string", {|"hoiho"|}, is_schema);
    ]
  in
  List.iter
    (fun (name, input, ok) ->
      let result = Learned_io.decode input in
      if not (ok result) then
        Alcotest.failf "%s: expected a matching typed error, got %s" name
          (match result with
          | Ok _ -> "Ok _"
          | Error e -> Learned_io.error_to_string e))
    cases

let patch_suffix patch json =
  match Json.member "suffixes" json with
  | Some (Json.List [ sm ]) -> set_field "suffixes" (Json.List [ patch sm ]) json
  | _ -> Alcotest.fail "sample shape changed"

let patch_suffix_list patch json =
  match Json.member "suffixes" json with
  | Some (Json.List sms) -> set_field "suffixes" (Json.List (patch sms)) json
  | _ -> Alcotest.fail "sample shape changed"

let nested_failures () =
  let cases =
    [
      ( "uncompilable regex source",
        patch_suffix (fun sm ->
            set_field "cands"
              (Json.List
                 [
                   Json.Obj
                     [
                       ("source", Json.String "^([a-z]+");
                       ("plan", Json.List [ Json.String "iata" ]);
                     ];
                 ])
              sm) );
      ( "plan/group-count mismatch",
        patch_suffix (fun sm ->
            set_field "cands"
              (Json.List
                 [
                   Json.Obj
                     [
                       ("source", Json.String {|^([a-z]+)\.x\.net$|});
                       ("plan", Json.List []);
                     ];
                 ])
              sm) );
      ( "unknown plan element",
        patch_suffix (fun sm ->
            set_field "cands"
              (Json.List
                 [
                   Json.Obj
                     [
                       ("source", Json.String {|^([a-z]+)\.x\.net$|});
                       ("plan", Json.List [ Json.String "postcode" ]);
                     ];
                 ])
              sm) );
      ( "unknown classification",
        patch_suffix (set_field "classification" (Json.String "stellar")) );
      ( "learned entry of wrong type",
        patch_suffix (set_field "learned" (Json.List [ Json.Int 5 ])) );
      ("suffix of wrong type", patch_suffix (set_field "suffix" (Json.Int 5))) ;
      ("stats of wrong type", patch_suffix (set_field "stats" (Json.Int 5)));
      ( "rtt_agreement out of range",
        patch_suffix (fun sm ->
            set_field "stats"
              (Json.Obj
                 [
                   ("tp", Json.Int 1);
                   ("fp", Json.Int 0);
                   ("fn", Json.Int 0);
                   ("unk", Json.Int 0);
                   ("rtt_agreement", Json.Float 1.5);
                 ])
              sm) );
    ]
  in
  List.iter
    (fun (name, patch) ->
      match Learned_io.decode (reencode patch) with
      | Error (Learned_io.Schema _) -> ()
      | Error e ->
          Alcotest.failf "%s: expected Schema error, got %s" name
            (Learned_io.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" name)
    cases

(* the serving-boundary bugfix: a snapshot carrying the same suffix
   twice used to decode fine and then be silently first-wins-indexed by
   Serve.create; it must now be rejected at decode with a typed Schema
   error naming the duplicate slot *)
let duplicate_suffix_rejected () =
  let input =
    reencode
      (patch_suffix_list (function
        | [ sm ] -> [ sm; sm ]
        | _ -> Alcotest.fail "sample shape changed"))
  in
  match Learned_io.decode input with
  | Error (Learned_io.Schema { path; expected; got }) ->
      Alcotest.(check string) "path names the slot" "$.suffixes[1].suffix" path;
      Alcotest.(check string) "expected" "unique suffix" expected;
      Alcotest.(check bool) "got names the suffix" true
        (got = Printf.sprintf "duplicate %S" "example.net")
  | Error e ->
      Alcotest.failf "expected Schema, got %s" (Learned_io.error_to_string e)
  | Ok _ -> Alcotest.fail "duplicate suffix decoded successfully"

(* format evolution: a v1 snapshot (no stats block) must still decode,
   landing on the neutral stats — old saved models keep serving after
   the v2 bump *)
let v1_decodes_with_neutral_stats () =
  let drop_field name = function
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> name) fields)
    | j -> j
  in
  let input =
    reencode (fun j ->
        set_field "format_version" (Json.Int 1) j
        |> patch_suffix (drop_field "stats"))
  in
  match Learned_io.decode input with
  | Ok m -> (
      match m.Learned_io.suffixes with
      | [ sm ] ->
          Alcotest.(check bool)
            "v1 suffix model carries the neutral stats" true
            (sm.Learned_io.stats = Hoiho.Confidence.no_stats)
      | _ -> Alcotest.fail "sample shape changed")
  | Error e ->
      Alcotest.failf "v1 snapshot must decode: %s"
        (Learned_io.error_to_string e)

(* ...and a v2 snapshot missing its stats block must NOT decode: the
   field is required at the current version *)
let v2_requires_stats () =
  let drop_field name = function
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> name) fields)
    | j -> j
  in
  match Learned_io.decode (reencode (patch_suffix (drop_field "stats"))) with
  | Error (Learned_io.Schema _) -> ()
  | Error e ->
      Alcotest.failf "expected Schema, got %s" (Learned_io.error_to_string e)
  | Ok _ -> Alcotest.fail "v2 snapshot without stats decoded"

let load_missing () =
  match Learned_io.load "no/such/model.hoiho.json" with
  | Error (Learned_io.Syntax _) -> ()
  | Error e -> Alcotest.failf "expected Syntax, got %s" (Learned_io.error_to_string e)
  | Ok _ -> Alcotest.fail "load of a missing file succeeded"

(* a failed read must still close its channel: every bad reload of a
   daemon (POST /reload, SIGHUP) would otherwise leak a descriptor *)
let failed_loads_leak_no_fd () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let dir = Filename.get_temp_dir_name () in
  let before = open_fds () in
  for _ = 1 to 200 do
    match Learned_io.load dir with
    | Error (Learned_io.Syntax _) -> ()
    | Error e -> Alcotest.failf "expected Syntax, got %s" (Learned_io.error_to_string e)
    | Ok _ -> Alcotest.fail "load of a directory succeeded"
  done;
  Alcotest.(check int) "open descriptors" before (open_fds ())

(* a file over the cap is refused before it is read, naming the limit;
   the file is sparse, so writing it costs one byte *)
let load_refuses_oversized () =
  let path = Filename.temp_file "hoiho_model" ".hoiho.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.seek oc (Int64.of_int Learned_io.max_file_bytes);
          output_char oc ' ');
      match Learned_io.load path with
      | Error (Learned_io.Syntax msg) ->
          Alcotest.(check bool) "error names the size limit" true
            (String.ends_with
               ~suffix:
                 (Printf.sprintf "exceeds the limit of %d for a model snapshot"
                    Learned_io.max_file_bytes)
               msg)
      | Error e -> Alcotest.failf "expected Syntax, got %s" (Learned_io.error_to_string e)
      | Ok _ -> Alcotest.fail "an oversized snapshot loaded")

let save_load_roundtrip () =
  let m = sample_model () in
  let path = Filename.temp_file "hoiho_model" ".hoiho.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Learned_io.save path m;
      match Learned_io.load path with
      | Ok m' -> Alcotest.(check bool) "equal" true (Learned_io.equal m m')
      | Error e -> Alcotest.failf "load failed: %s" (Learned_io.error_to_string e))

(* save goes through tmp + rename: overwriting a snapshot a daemon may
   be reloading leaves only the complete new file behind *)
let save_over_existing_is_atomic () =
  let m = sample_model () in
  let path = Filename.temp_file "hoiho_model" ".hoiho.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Learned_io.save path { m with Learned_io.suffixes = [] };
      Learned_io.save path m;
      let tmp_prefix = Filename.basename path ^ ".tmp." in
      Alcotest.(check (list string)) "no tmp sibling left" []
        (List.filter
           (String.starts_with ~prefix:tmp_prefix)
           (Array.to_list (Sys.readdir (Filename.dirname path))));
      match Learned_io.load path with
      | Ok m' -> Alcotest.(check bool) "equal to the second save" true (Learned_io.equal m m')
      | Error e -> Alcotest.failf "load failed: %s" (Learned_io.error_to_string e))

(* --- json primitive round-trip (the codec's foundation) --- *)

let gen_json =
  let open Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
               map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 12));
             ]
         else
           oneof
             [
               map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun kvs ->
                   Json.Obj
                     (List.mapi (fun i (k, v) -> (Printf.sprintf "%d%s" i k, v)) kvs))
                 (list_size (int_bound 4)
                    (tup2 (string_size ~gen:printable (int_bound 6)) (self (n / 2))));
             ])

let json_roundtrip =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:1000 ~name:"json parse o to_string = id"
       (make ~print:Json.to_string gen_json)
       (fun j ->
         match Json.parse (Json.to_string j) with
         | Ok j' -> Json.equal j j'
         | Error m -> Test.fail_report m))

(* --- the decode vocabulary --- *)

let json_decoders_name_the_path () =
  let doc =
    match Json.parse {|{"a": [{"b": 1}, {"b": "x"}], "n": 2, "e": "red", "l": [1, 2, 3]}|} with
    | Ok j -> j
    | Error m -> Alcotest.failf "fixture: %s" m
  in
  let err = function
    | Ok _ -> "Ok"
    | Error e -> Json.error_to_string e
  in
  let bs = Json.field "a" (Json.list (Json.field "b" Json.int)) Json.root doc in
  Alcotest.(check string) "indexed list path" "$.a[1].b: expected int, got string"
    (err bs);
  Alcotest.(check string) "absent field" "$.z: expected present field, got absent"
    (err (Json.field "z" Json.int Json.root doc));
  Alcotest.(check string) "not an object" "$.n: expected object, got int"
    (err (Json.field "n" (Json.field "b" Json.int) Json.root doc));
  Alcotest.(check (result (float 0.0) reject)) "a number accepts an int" (Ok 2.0)
    (Result.map_error ignore (Json.field "n" Json.number Json.root doc));
  Alcotest.(check (result (option int) reject)) "an absent optional field" (Ok None)
    (Result.map_error ignore (Json.field_opt "z" Json.int Json.root doc));
  Alcotest.(check string) "enum names the value" {|$.e: expected blue|green, got "red"|}
    (err (Json.field "e" (Json.enum "blue|green" (fun _ -> None)) Json.root doc));
  Alcotest.(check string) "check names the value" "$.n: expected odd int, got 2"
    (err (Json.field "n" (Json.check "odd int" (fun n -> n mod 2 = 1) Json.int) Json.root doc));
  Alcotest.(check string) "pair items" "$.a[0]: expected int, got object"
    (err (Json.field "a" (Json.pair Json.int Json.int) Json.root doc));
  Alcotest.(check string) "pair length" "$.l: expected 2-element list, got 3-element list"
    (err (Json.field "l" (Json.pair Json.int Json.int) Json.root doc))

(* --- seeded mutations over the three decoders ---

   From a valid snapshot, event stream and SLO file: truncate, flip a
   byte, give a value the wrong type, drop a field, or inflate a regex
   quantifier (a number, in documents without regexes). Event and SLO
   decoding must never raise. A snapshot that still parses as JSON
   must never be answered through decode's catch-all fence: every
   defect in it is a typed Schema or version error. *)

module Delta = Hoiho.Delta
module Slo = Hoiho_net.Slo
module Rtts = Hoiho_itdk.Rtts

let sample_events =
  Delta.events_to_string
    [
      Delta.Upsert
        (Hoiho_itdk.Router.make 7 ~asn:64500 ~hostnames:[ "xe-1.cr1.lhr1.example.net" ]
           ~ping_rtts:(Rtts.of_list [ (1, 2.5); (2, 31.0) ]));
      Delta.Remove 3;
      Delta.Add_hostname { router = 7; hostname = "xe-2.cr1.lhr1.example.net" };
      Delta.Remove_hostname { router = 7; hostname = "xe-1.cr1.lhr1.example.net" };
      Delta.Set_hostnames { router = 9; hostnames = [ "ae0.cr2.fra1.example.net" ] };
      Delta.Set_rtts
        { router = 9; ping = Rtts.of_list [ (4, 8.25) ]; trace = Rtts.empty };
    ]

let sample_slo =
  {|{"window_s": 10, "buckets": 5, "objectives": [
      {"metric": "latency_p99_ms", "max": 250},
      {"metric": "error_rate", "max": 0.05, "fail_ratio": 3.0}]}|}

type mutation = Truncate | Flip | Retype | Drop | Inflate

let mutation_name = function
  | Truncate -> "truncate"
  | Flip -> "flip"
  | Retype -> "retype"
  | Drop -> "drop"
  | Inflate -> "inflate"

(* the pre-order positions of the nodes [pick] selects, and a rewrite
   of the node at one position *)
let positions pick j =
  let found = ref [] and k = ref 0 in
  let rec go j =
    if pick j then found := !k :: !found;
    incr k;
    match j with
    | Json.List l -> List.iter go l
    | Json.Obj fields -> List.iter (fun (_, v) -> go v) fields
    | _ -> ()
  in
  go j;
  List.rev !found

let rewrite pos f j =
  let k = ref 0 in
  let rec go j =
    let here = !k = pos in
    incr k;
    if here then f j
    else
      match j with
      | Json.List l -> Json.List (List.map go l)
      | Json.Obj fields -> Json.Obj (List.map (fun (n, v) -> (n, go v)) fields)
      | j -> j
  in
  go j

let huge_count = "{1,99999999999999999999}"

let inflate_source s =
  match String.index_opt s '+' with
  | Some i -> String.sub s 0 i ^ huge_count ^ String.sub s (i + 1) (String.length s - i - 1)
  | None -> "^a" ^ huge_count ^ s

let mutate rand mutation doc =
  let any l = List.nth l (Random.State.int rand (List.length l)) in
  let tree f = match Json.parse doc with Ok j -> Json.to_string (f j) | Error _ -> doc in
  let at pick f j = match positions pick j with [] -> j | ps -> rewrite (any ps) f j in
  match mutation with
  | Truncate -> String.sub doc 0 (Random.State.int rand (String.length doc))
  | Flip ->
      let b = Bytes.of_string doc in
      let i = Random.State.int rand (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int rand 255)));
      Bytes.to_string b
  | Retype ->
      tree
        (at (fun _ -> true) (function
          | Json.Int _ | Json.Float _ -> Json.String "7"
          | Json.String _ -> Json.Int 7
          | Json.Bool _ -> Json.Null
          | Json.Null -> Json.Bool true
          | Json.List _ -> Json.Obj []
          | Json.Obj _ -> Json.List []))
  | Drop ->
      tree
        (at
           (function Json.Obj (_ :: _) -> true | _ -> false)
           (function
             | Json.Obj fields ->
                 let victim = fst (any fields) in
                 Json.Obj (List.filter (fun (n, _) -> n <> victim) fields)
             | j -> j))
  | Inflate ->
      tree (fun j ->
          let has_source = function
            | Json.Obj fields -> List.mem_assoc "source" fields
            | _ -> false
          in
          if positions has_source j <> [] then
            at has_source
              (function
                | Json.Obj fields ->
                    Json.Obj
                      (List.map
                         (function
                           | "source", Json.String s -> ("source", Json.String (inflate_source s))
                           | field -> field)
                         fields)
                | j -> j)
              j
          else
            at
              (function Json.Int _ -> true | _ -> false)
              (fun _ -> if Random.State.bool rand then Json.Int max_int else Json.Float 1e300)
              j)

let decoders_survive_mutation =
  let gen =
    Gen.(
      tup4 gen_model
        (oneofl [ `Snapshot; `Events; `Slo ])
        (oneofl [ Truncate; Flip; Retype; Drop; Inflate ])
        int)
  in
  let print (m, target, mutation, seed) =
    Printf.sprintf "%s of the %s (seed %d)%s" (mutation_name mutation)
      (match target with `Snapshot -> "snapshot" | `Events -> "events" | `Slo -> "SLO file")
      seed
      (match target with `Snapshot -> ": " ^ Learned_io.encode m | _ -> "")
  in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:600 ~name:"decoders survive seeded mutations" (make ~print gen)
       (fun (m, target, mutation, seed) ->
         let rand = Random.State.make [| seed |] in
         match target with
         | `Events ->
             ignore (Delta.events_of_string (mutate rand mutation sample_events));
             true
         | `Slo ->
             ignore (Slo.parse (mutate rand mutation sample_slo));
             true
         | `Snapshot -> (
             let input = mutate rand mutation (Learned_io.encode m) in
             match (Json.parse input, Learned_io.decode input) with
             | Ok _, Error (Learned_io.Syntax msg) ->
                 Test.fail_reportf "parsed as JSON, yet decoded through the fence: %s" msg
             | _ -> true)))

let suites =
  [
    ( "learned_io",
      [
        Alcotest.test_case "decode failures are typed" `Quick decode_failures;
        Alcotest.test_case "nested schema failures" `Quick nested_failures;
        Alcotest.test_case "duplicate suffix rejected" `Quick
          duplicate_suffix_rejected;
        Alcotest.test_case "v1 decodes with neutral stats" `Quick
          v1_decodes_with_neutral_stats;
        Alcotest.test_case "v2 requires the stats block" `Quick
          v2_requires_stats;
        Alcotest.test_case "load of missing file" `Quick load_missing;
        Alcotest.test_case "200 failed loads leave /proc/self/fd unchanged" `Quick
          failed_loads_leak_no_fd;
        Alcotest.test_case "load refuses an oversized file" `Quick
          load_refuses_oversized;
        Alcotest.test_case "save/load round-trip" `Quick save_load_roundtrip;
        Alcotest.test_case "save over an existing snapshot is atomic" `Quick
          save_over_existing_is_atomic;
        roundtrip;
        encode_stable;
        json_roundtrip;
        Alcotest.test_case "json decoders name the failing path" `Quick
          json_decoders_name_the_path;
        decoders_survive_mutation;
      ] );
  ]
