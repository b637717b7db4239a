(* Property-based tests (qcheck) on the core data structures and
   invariants, registered as alcotest cases. *)

module Ast = Hoiho_rx.Ast
module Parse = Hoiho_rx.Parse
module Engine = Hoiho_rx.Engine
module Strutil = Hoiho_util.Strutil
module Prng = Hoiho_util.Prng
module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt

let q ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- generators --- *)

let gen_lower = QCheck.Gen.char_range 'a' 'z'

let gen_token =
  QCheck.Gen.(map (fun l -> String.concat "" (List.map (String.make 1) l))
                (list_size (int_range 1 8) gen_lower))

let gen_hostname_string =
  QCheck.Gen.(
    map
      (fun (labels, digits) ->
        String.concat "."
          (List.map2
             (fun l d -> if d then l ^ "1" else l)
             labels
             (List.filteri (fun i _ -> i < List.length labels) digits)))
      (pair
         (list_size (int_range 1 5) gen_token)
         (list_size (int_range 5 5) bool)))

(* random regex ASTs of bounded size *)
let gen_cls =
  QCheck.Gen.oneofl
    [ Ast.lower; Ast.digit; Ast.not_char '.'; Ast.not_char '-';
      { Ast.neg = false; ranges = [ ('a', 'z'); ('0', '9') ] } ]

let gen_atom =
  QCheck.Gen.(
    oneof
      [
        map (fun c : Ast.atom -> Ast.Lit c) gen_lower;
        return (Ast.Lit '.' : Ast.atom);
        map (fun c : Ast.atom -> Ast.Cls c) gen_cls;
        return (Ast.Any : Ast.atom);
      ])

let gen_node =
  QCheck.Gen.(
    gen_atom >>= fun atom ->
    oneof
      [
        return (Ast.node_of_atom atom);
        map
          (fun (min, extra) -> Ast.Rep (atom, min, Some (min + extra), Ast.Greedy))
          (pair (int_range 0 3) (int_range 0 3));
        map (fun min -> Ast.Rep (atom, min, None, Ast.Greedy)) (int_range 0 2);
        return (Ast.Rep (atom, 1, None, Ast.Possessive));
      ])

let gen_ast =
  QCheck.Gen.(
    list_size (int_range 1 6) gen_node >>= fun body ->
    oneof
      [
        return body;
        return ((Ast.Bol :: body) @ [ Ast.Eol ]);
        map (fun inner -> [ Ast.Grp inner ] @ body) (list_size (int_range 1 3) gen_node);
      ])

let arb_ast = QCheck.make ~print:Ast.to_string gen_ast

(* capture-heavy variant: groups around repetitions (possessive
   included), and nested groups — the shapes where capture
   bookkeeping, not just the match decision, can go wrong *)
let gen_caps_node =
  QCheck.Gen.(
    gen_atom >>= fun atom ->
    let rep greed (min, extra) = Ast.Grp [ Ast.Rep (atom, min, Some (min + extra), greed) ] in
    oneof
      [
        return (Ast.node_of_atom atom);
        map (fun inner -> Ast.Grp inner) (list_size (int_range 1 2) gen_node);
        return (Ast.Grp [ Ast.Rep (atom, 1, None, Ast.Possessive) ]);
        map (rep Ast.Possessive) (pair (int_range 0 2) (int_range 1 3));
        map (rep Ast.Greedy) (pair (int_range 0 2) (int_range 1 3));
        map (fun inner -> Ast.Grp [ Ast.Grp inner ]) (list_size (int_range 1 2) gen_node);
      ])

let gen_ast_caps =
  QCheck.Gen.(
    list_size (int_range 1 4) gen_caps_node >>= fun body ->
    oneofl [ body; (Ast.Bol :: body) @ [ Ast.Eol ] ])

(* greedy-only variant for differential testing against the NFA engine,
   which cannot express possessive quantifiers *)
let rec degreed_node = function
  | Ast.Rep (a, min, max, _) -> Ast.Rep (a, min, max, Ast.Greedy)
  | Ast.Grp inner -> Ast.Grp (List.map degreed_node inner)
  | node -> node

(* runs of repetitions inside groups nested up to two deep: one
   repetition's continuation is the next one's entry, the shape the
   matcher's failure memo prunes *)
let gen_nested_node =
  QCheck.Gen.(
    let group g = map (fun inner -> Ast.Grp inner) (list_size (int_range 0 3) g) in
    frequency [ (3, gen_node); (1, group (frequency [ (3, gen_node); (1, group gen_node) ])) ])

let gen_greedy_ast =
  QCheck.Gen.(
    map (List.map degreed_node)
      (oneof
         [
           gen_ast;
           list_size (int_range 1 5) gen_nested_node >>= fun body ->
           oneofl [ body; (Ast.Bol :: body) @ [ Ast.Eol ] ];
         ]))

let gen_input =
  QCheck.Gen.(
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 0 12)
         (oneofl [ 'a'; 'b'; 'c'; 'z'; '0'; '1'; '9'; '.'; '-' ])))

let arb_diff =
  QCheck.make
    ~print:(fun (ast, s) -> Printf.sprintf "%s on %S" (Ast.to_string ast) s)
    QCheck.Gen.(pair gen_greedy_ast gen_input)

(* --- rx properties --- *)

let prop_roundtrip ast =
  let printed = Ast.to_string ast in
  match Parse.parse printed with
  | Error msg -> QCheck.Test.fail_reportf "unparseable %S: %s" printed msg
  | Ok ast2 -> Ast.to_string ast2 = printed

let prop_literal_self_match token =
  (* an anchored literal matches exactly itself *)
  let ast = (Ast.Bol :: List.init (String.length token) (fun i -> Ast.Lit token.[i])) @ [ Ast.Eol ] in
  let t = Engine.compile ast in
  Engine.matches t token && not (Engine.matches t (token ^ "x"))

let prop_fixed_width_class k =
  let k = 1 + (abs k mod 6) in
  let t = Engine.compile [ Ast.Bol; Ast.Rep (Ast.Cls Ast.lower, k, Some k, Ast.Greedy); Ast.Eol ] in
  Engine.matches t (String.make k 'a')
  && (not (Engine.matches t (String.make (k + 1) 'a')))
  && not (Engine.matches t (String.make (max 0 (k - 1)) 'a'))

let prop_possessive_subset s =
  (* a possessive match implies the greedy variant also matches *)
  let poss =
    Engine.compile
      [ Ast.Bol; Ast.Rep (Ast.Cls Ast.lower, 1, None, Ast.Possessive); Ast.Eol ]
  in
  let greedy =
    Engine.compile [ Ast.Bol; Ast.Rep (Ast.Cls Ast.lower, 1, None, Ast.Greedy); Ast.Eol ]
  in
  (not (Engine.matches poss s)) || Engine.matches greedy s

(* the two engines must agree on match existence *)
let prop_engines_agree (ast, input) =
  let backtracker = Engine.compile ast in
  let nfa = Nfavm.compile ast in
  let a = Engine.matches backtracker input in
  let b = Nfavm.matches nfa input in
  if a = b then true
  else
    QCheck.Test.fail_reportf "engine=%b nfa=%b for %s on %S" a b
      (Ast.to_string ast) input

(* --- strutil properties --- *)

let prop_chunks_concat s =
  let chunks = Strutil.chunks_of_classes s in
  String.concat ""
    (List.map (function `Alpha x | `Digit x | `Other x -> x) chunks)
  = s

let prop_split_punct_alnum s =
  List.for_all (String.for_all Strutil.is_alnum) (Strutil.split_punct s)

let prop_subsequence_reflexive s = Strutil.is_subsequence s s

let prop_strip_digits_prefix s =
  let stripped = Strutil.strip_trailing_digits s in
  Strutil.has_prefix ~prefix:stripped s

(* --- prng properties --- *)

let prop_int_in_bounds (seed, bound) =
  let bound = 1 + abs bound mod 1000 in
  let rng = Prng.create seed in
  let v = Prng.int rng bound in
  v >= 0 && v < bound

let prop_same_seed_same_draws seed =
  let a = Prng.create seed and b = Prng.create seed in
  List.init 20 (fun _ -> Prng.bits64 a) = List.init 20 (fun _ -> Prng.bits64 b)

(* --- geo properties --- *)

let gen_coord =
  QCheck.Gen.(
    map2
      (fun lat lon -> Coord.make ~lat ~lon)
      (float_range (-89.0) 89.0)
      (float_range (-179.0) 179.0))

let arb_coord = QCheck.make ~print:(Format.asprintf "%a" Coord.pp) gen_coord

let prop_distance_symmetric (a, b) =
  abs_float (Coord.distance_km a b -. Coord.distance_km b a) < 1e-6

let prop_distance_bounds (a, b) =
  let d = Coord.distance_km a b in
  d >= 0.0 && d <= 20100.0

let prop_rtt_consistent_at_best_case (a, b) =
  Lightrtt.consistent ~vp:a ~candidate:b (Lightrtt.min_rtt_ms a b)

(* --- learn.abbrev properties --- *)

let prop_prefix_always_matches token =
  String.length token < 2
  ||
  let hint = String.sub token 0 (1 + (String.length token / 2)) in
  Hoiho.Learn.abbrev_matches ~hint ~name:token

let prop_first_char_anchor (hint, name) =
  (String.length hint = 0 || String.length name = 0)
  || hint.[0] = name.[0]
  || not (Hoiho.Learn.abbrev_matches ~hint ~name)

(* --- netsim invariants over random seeds --- *)

let small_config seed =
  {
    Hoiho_netsim.Generate.label = "prop";
    seed;
    n_geo_consistent = 2;
    n_geo_small = 1;
    n_geo_mixed = 1;
    n_multikind = 1;
    n_compound = 1;
    n_nogeo = 2;
    n_extra_towns = 30;
    n_spoofing_vps = 0;
    include_validation = false;
    n_vps = 12;
    hostname_fraction = 0.6;
    p_responsive_unnamed = 0.8;
  }

let prop_rtt_soundness seed =
  let ds, truth = Hoiho_netsim.Generate.generate (small_config seed) in
  let vp id = Hoiho_itdk.Dataset.vp ds id in
  Array.for_all
    (fun (r : Hoiho_itdk.Router.t) ->
      match Hoiho_netsim.Truth.router truth r.Hoiho_itdk.Router.id with
      | None -> false
      | Some t ->
          List.for_all
            (fun (vp_id, rtt) ->
              rtt +. 1e-6
              >= Lightrtt.min_rtt_ms (vp vp_id).Hoiho_itdk.Vp.coord
                   t.Hoiho_netsim.Truth.coord)
            (Hoiho_itdk.Rtts.to_list r.Hoiho_itdk.Router.ping_rtts
             @ Hoiho_itdk.Rtts.to_list r.Hoiho_itdk.Router.trace_rtts))
    ds.Hoiho_itdk.Dataset.routers

(* the text carries no truth, so a loaded corpus must still find the
   answer key of each of its routers by id *)
let prop_io_roundtrip seed =
  let ds, truth = Hoiho_netsim.Generate.generate (small_config seed) in
  let text = Hoiho_itdk.Io.to_string ds in
  let loaded = Hoiho_itdk.Io.of_string text in
  Hoiho_itdk.Io.to_string loaded = text
  && Array.for_all
       (fun (r : Hoiho_itdk.Router.t) ->
         Hoiho_netsim.Truth.router truth r.Hoiho_itdk.Router.id <> None)
       loaded.Hoiho_itdk.Dataset.routers

(* --- packed RTT samples --- *)

module Rtts = Hoiho_itdk.Rtts

(* VP ids that std_vps has (0-7) and lacks (8 and up, negative), with
   the extremes of the int32 range; RTTs that Chaos can leave behind
   (lost, outlier, negated) *)
let gen_vp =
  QCheck.Gen.(
    frequency
      [ (30, int_range 0 7); (1, int_range 8 9); (1, oneofl [ -1; 2147483647; -2147483648 ]) ])

let gen_rtt =
  QCheck.Gen.(
    frequency
      [
        (8, float_range 0.0 400.0);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 ]);
        (1, map Float.neg (float_range 0.0 400.0));
      ])

let gen_samples = QCheck.Gen.(list_size (int_range 0 40) (pair gen_vp gen_rtt))

let print_samples l =
  String.concat "; " (List.map (fun (v, r) -> Printf.sprintf "(%d, %h)" v r) l)

let arb_samples = QCheck.make ~print:print_samples gen_samples

(* bit-for-bit: [=] would call nan unequal to itself *)
let same_samples a b =
  List.equal
    (fun (v, r) (v', r') -> v = v' && Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float r'))
    a b

let prop_rtts_roundtrip l =
  let t = Rtts.of_list l in
  same_samples (Rtts.to_list t) l
  && Rtts.length t = List.length l
  && Rtts.is_empty t = (l = [])

(* Consist's verdicts against the definition over the unpacked list:
   every sample's RTT plus the 0.5 ms slack reaches the best case from
   its VP, and an id the dataset lacks raises. *)
let consist_vps = lazy (Helpers.std_vps ())

let consist_for =
  lazy (Hoiho.Consist.create (Helpers.dataset [] (Lazy.force consist_vps)))

let find_vp id =
  List.find_opt (fun (v : Hoiho_itdk.Vp.t) -> v.Hoiho_itdk.Vp.id = id) (Lazy.force consist_vps)

let best_case (v : Hoiho_itdk.Vp.t) loc = Lightrtt.min_rtt_ms v.Hoiho_itdk.Vp.coord loc

let reference_consistent samples loc =
  List.for_all
    (fun (id, rtt) ->
      match find_vp id with
      | None -> raise (Hoiho.Consist.Unknown_vp id)
      | Some v -> rtt +. 0.5 >= best_case v loc)
    samples

let verdict f = match f () with b -> Ok b | exception Hoiho.Consist.Unknown_vp id -> Error id

let prop_consist_agrees (ping, trace, loc) =
  let c = Lazy.force consist_for in
  let r =
    Hoiho_itdk.Router.make 1 ~ping_rtts:(Rtts.of_list ping) ~trace_rtts:(Rtts.of_list trace)
  in
  let preferred = if ping <> [] then ping else trace in
  verdict (fun () -> Hoiho.Consist.location_consistent c r loc)
  = verdict (fun () -> reference_consistent preferred loc)
  && verdict (fun () -> Hoiho.Consist.channel_consistent c r Hoiho.Consist.Ping loc)
     = verdict (fun () -> reference_consistent ping loc)
  && verdict (fun () -> Hoiho.Consist.channel_consistent c r Hoiho.Consist.Trace loc)
     = verdict (fun () -> reference_consistent trace loc)

(* half the samples of known VPs sit within 1 ms of the best case to
   [loc], where the slack decides the verdict *)
let gen_samples_near loc =
  QCheck.Gen.(
    map
      (List.map (fun ((id, rtt), off) ->
           match (off, find_vp id) with
           | Some off, Some v -> (id, best_case v loc +. off)
           | _ -> (id, rtt)))
      (list_size (int_range 0 6) (pair (pair gen_vp gen_rtt) (opt (float_range (-1.0) 1.0)))))

let arb_consist_case =
  QCheck.make
    ~print:(fun (p, t, loc) ->
      Format.asprintf "ping [%s] trace [%s] at %a" (print_samples p) (print_samples t)
        Coord.pp loc)
    QCheck.Gen.(
      gen_coord >>= fun loc ->
      map2 (fun p t -> (p, t, loc)) (gen_samples_near loc) (gen_samples_near loc))

let small_int = QCheck.small_int
let string_arb = QCheck.string
let lower_token = QCheck.make ~print:Fun.id gen_token

(* --- never-raise under adversarial hostnames (DESIGN.md §8) ---

   PTR records are attacker- and typo-controlled input: any byte
   sequence must come back as a location or a miss, never an
   exception, with every capture in-bounds. *)

let gen_adversarial =
  QCheck.Gen.(
    let any_byte = map Char.chr (int_range 0 255) in
    map2
      (fun junk tail -> junk ^ tail)
      (string_size ~gen:any_byte (int_range 0 300))
      (* half the cases steer into the learned suffix so the regex
         path, not just the PSL bail-out, sees the junk *)
      (oneofl [ ""; ""; "."; ".."; ".example.net"; ".example.net."; ".EXAMPLE.NET" ]))

let adversarial = QCheck.make ~print:String.escaped gen_adversarial

let adversarial_pipeline =
  lazy
    (let ds, _, _ = Helpers.iata_fixture () in
     Hoiho.Pipeline.run ds)

let adversarial_regexes =
  lazy
    (List.map Engine.compile_exn
       [
         {|^.+\.([a-z]{3})\d+\.example\.net$|};
         {|^([a-z]+)-?\d*\.cr\d\.([a-z]{3})\d+\.example\.net$|};
         {|([a-z]{3})\d+|};
       ])

let prop_geolocate_never_raises h =
  let p = Lazy.force adversarial_pipeline in
  match Hoiho.Pipeline.geolocate p h with Some _ | None -> true

let prop_exec_never_raises h =
  List.for_all
    (fun re ->
      let filtered = Engine.exec re h in
      let caps_in_bounds =
        match filtered with
        | None -> true
        | Some caps ->
            Array.length caps = Engine.group_count re
            && Array.for_all
                 (function
                   | None -> true | Some s -> String.length s <= String.length h)
                 caps
      in
      caps_in_bounds && filtered = Engine.exec_unfiltered re h)
    (Lazy.force adversarial_regexes)

let suites =
  [
    ( "props.rx",
      [
        q "print/parse roundtrip" arb_ast prop_roundtrip;
        q "anchored literal self-match" lower_token prop_literal_self_match;
        q "fixed-width class" small_int prop_fixed_width_class;
        q "possessive implies greedy" lower_token prop_possessive_subset;
        q ~count:800 "backtracker and NFA agree" arb_diff prop_engines_agree;
      ] );
    ( "props.strutil",
      [
        q "chunks concat to input" string_arb prop_chunks_concat;
        q "split_punct yields alnum" string_arb prop_split_punct_alnum;
        q "subsequence reflexive" string_arb prop_subsequence_reflexive;
        q "strip digits is prefix" string_arb prop_strip_digits_prefix;
      ] );
    ( "props.prng",
      [
        q "int in bounds" QCheck.(pair small_int small_int) prop_int_in_bounds;
        q "same seed same draws" small_int prop_same_seed_same_draws;
      ] );
    ( "props.geo",
      [
        q "distance symmetric" (QCheck.pair arb_coord arb_coord) prop_distance_symmetric;
        q "distance bounds" (QCheck.pair arb_coord arb_coord) prop_distance_bounds;
        q "best case is consistent" (QCheck.pair arb_coord arb_coord)
          prop_rtt_consistent_at_best_case;
      ] );
    ( "props.learn",
      [
        q "prefix abbreviation matches" lower_token prop_prefix_always_matches;
        q "first char anchors" (QCheck.pair lower_token lower_token) prop_first_char_anchor;
      ] );
    ( "props.netsim",
      [
        q ~count:8 "rtt soundness" small_int prop_rtt_soundness;
        q ~count:8 "io roundtrip" small_int prop_io_roundtrip;
      ] );
    ( "props.rtts",
      [
        q ~count:500 "packed round-trip" arb_samples prop_rtts_roundtrip;
        q ~count:500 "consistency agrees with the list definition" arb_consist_case
          prop_consist_agrees;
      ] );
    ( "props.adversarial",
      [
        q ~count:5000 "geolocate never raises" adversarial prop_geolocate_never_raises;
        q ~count:5000 "exec never raises, captures in-bounds" adversarial
          prop_exec_never_raises;
      ] );
  ]
