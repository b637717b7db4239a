module Router = Hoiho_itdk.Router
module Rtts = Hoiho_itdk.Rtts
module Vp = Hoiho_itdk.Vp
module Dataset = Hoiho_itdk.Dataset
module Io = Hoiho_itdk.Io

let tc = Helpers.tc

let test_min_rtt () =
  let r = Router.make 1 ~ping_rtts:(Rtts.of_list [ (0, 5.0); (1, 2.0); (2, 9.0) ]) in
  Alcotest.(check (option (pair int (float 1e-9)))) "min ping" (Some (1, 2.0))
    (Router.min_ping_rtt r);
  Alcotest.(check (option (pair int (float 1e-9)))) "no trace" None
    (Router.min_trace_rtt r)

let test_has_flags () =
  let r = Router.make 2 in
  Alcotest.(check bool) "no hostname" false (Router.has_hostname r);
  Alcotest.(check bool) "no rtt" false (Router.has_rtt r);
  let r2 = Router.make 3 ~hostnames:[ "a.he.net" ] ~trace_rtts:(Rtts.of_list [ (0, 1.0) ]) in
  Alcotest.(check bool) "hostname" true (Router.has_hostname r2);
  Alcotest.(check bool) "trace counts as rtt" true (Router.has_rtt r2)

let test_suffixes () =
  let r =
    Router.make 4
      ~hostnames:
        [ "a.b.he.net"; "c.he.net"; "d.zayo.com"; "not-a-hostname"; "x.zzz" ]
  in
  Alcotest.(check (list string)) "distinct suffixes" [ "he.net"; "zayo.com" ]
    (Router.suffixes r)

let make_ds () =
  let vps = Helpers.std_vps () in
  let ash = Helpers.city_st "ashburn" "us" "va" in
  let lon = Helpers.city "london" "gb" in
  let routers =
    [
      Helpers.router ~id:0 ~at:ash ~vps ~hostnames:[ "r1.ash.he.net" ] ();
      Helpers.router ~id:1 ~at:lon ~vps ~hostnames:[ "r2.lon.he.net"; "x.lon.zayo.com" ] ();
      Helpers.router ~id:2 ~at:lon ~vps ();
    ]
  in
  Helpers.dataset routers vps

let test_dataset_counts () =
  let ds = make_ds () in
  Alcotest.(check int) "routers" 3 (Dataset.n_routers ds);
  Alcotest.(check int) "named" 2 (Dataset.n_with_hostname ds);
  Alcotest.(check int) "responsive" 3 (Dataset.n_responsive ds)

let test_by_suffix () =
  let ds = make_ds () in
  let groups = Dataset.by_suffix ds in
  Alcotest.(check int) "two suffixes" 2 (List.length groups);
  let he = List.assoc "he.net" groups in
  Alcotest.(check int) "he.net routers" 2 (List.length he);
  let zayo = List.assoc "zayo.com" groups in
  Alcotest.(check int) "zayo routers" 1 (List.length zayo)

let test_vp_lookup () =
  let ds = make_ds () in
  let vp = Dataset.vp ds 3 in
  Alcotest.(check int) "vp id" 3 vp.Vp.id;
  Alcotest.check_raises "unknown vp" Not_found (fun () -> ignore (Dataset.vp ds 99))

let test_summary_mentions_label () =
  let ds = make_ds () in
  Alcotest.(check bool) "label in summary" true
    (Hoiho_util.Strutil.has_prefix ~prefix:"test:" (Dataset.summary ds))

(* --- Io round-trips --- *)

let test_io_roundtrip_handmade () =
  let ds = make_ds () in
  let text = Io.to_string ds in
  let ds2 = Io.of_string text in
  Alcotest.(check string) "identical serialization" text (Io.to_string ds2)

let test_io_roundtrip_generated () =
  let ds, _ = Hoiho_netsim.Generate.generate (Hoiho_netsim.Presets.tiny ~seed:5 ()) in
  let text = Io.to_string ds in
  let ds2 = Io.of_string text in
  Alcotest.(check int) "router count" (Dataset.n_routers ds) (Dataset.n_routers ds2);
  Alcotest.(check int) "vp count"
    (Array.length ds.Dataset.vps)
    (Array.length ds2.Dataset.vps);
  Alcotest.(check string) "full fidelity" text (Io.to_string ds2)

let test_io_preserves_truth () =
  let ds = make_ds () in
  let ds2 = Io.of_string (Io.to_string ds) in
  let r0 = ds2.Dataset.routers.(0) in
  match r0.Router.truth with
  | Some t ->
      Alcotest.(check string) "city key" "ashburn|us|va" t.Router.city_key;
      Alcotest.(check int) "hostname hints" 1 (List.length t.Router.hostname_hints)
  | None -> Alcotest.fail "truth lost in round-trip"

let test_io_rejects_garbage () =
  Alcotest.(check bool) "malformed input raises" true
    (try
       ignore (Io.of_string "bogus record here\n");
       false
     with Failure _ -> true)

(* one row per kind of malformed record: the input, the line the error
   must name, and a fragment of its message *)
let malformed_rows =
  [
    ("bogus record here\n", 1, "unknown record bogus");
    ("router 1e\n", 1, "bad router id");
    ("router 1\nping x 1.0\n", 2, "bad VP id");
    ("router 1\nping 1 fast\n", 2, "bad RTT");
    ("router 1\nping 1\n", 2, "missing field");
    ("router 1\nping 1 2.0 3\n", 2, "extra field");
    ("router 1\nhost a.example.net \n", 2, "extra field");
    ("router 1\nping 4294967296 1.0\n", 2, "32 bits");
    ("itdk x\n\nrouter 1\ntrace 0 -\n", 4, "bad RTT");
    ("router 1\nasn AS7\n", 2, "bad ASN");
    ("link 1\n", 1, "missing field");
    ("link 1 b\n", 1, "bad router id");
    ("vp 0 a 91.0 0.0 x|y\n", 1, "latitude out of range");
    ("vp z a 1.0 0.0 x|y\n", 1, "bad VP id");
    ("router 1\ntruth a b 0 k\n", 2, "bad latitude");
    ("ping 1 2.0\n", 1, "ping outside router");
    ("host a.example.net\n", 1, "host outside router");
    ("router 1\nhint ash\n", 2, "hint outside truth");
    ("router 1\nhosthint a.example.net -\n", 2, "hosthint outside truth");
    ("router 1\nping 1 1.5.5\n", 2, "bad RTT \"1.5.5\"");
    ("router 1\nping 1 1e\n", 2, "bad RTT \"1e\"");
    ("router 1\nping 12345678901234567890 1.0\n", 2, "bad VP id \"12345678901234567890\"");
    ("router 1\nping 1  2.0\n", 2, "bad RTT \"\"");
  ]

let test_io_errors_name_the_line () =
  List.iter
    (fun (text, line, fragment) ->
      let prefix = Printf.sprintf "Itdk.Io.read: line %d: " line in
      match Io.of_string text with
      | _ -> Alcotest.failf "%S: accepted" text
      | exception Failure msg ->
          if
            not
              (Hoiho_util.Strutil.has_prefix ~prefix msg
              && Helpers.contains msg fragment)
          then Alcotest.failf "%S: got %S, want %S...%S" text msg prefix fragment)
    malformed_rows

(* Two routers with one id are one router too many: a relearn finds
   routers by id, so it would rewrite both slots with one event. The
   id check is one comparison while ids increase and a table once they
   stop; either way the second one's line is named. *)
let test_io_duplicate_ids () =
  let refused text line id =
    match Io.of_string text with
    | _ -> Alcotest.failf "%S: accepted" text
    | exception Failure msg ->
        Alcotest.(check string) "error" (Printf.sprintf "Itdk.Io.read: line %d: duplicate router id %d" line id) msg
  in
  refused "itdk dup\nrouter 1\nhost a.cr1.lhr1.x.net\nrouter 1\nhost b.cr1.fra1.y.net\n" 4 1;
  refused "router 5\nrouter 3\nrouter 4\nrouter 3\n" 4 3;
  refused "router 2\nrouter 7\nrouter 1\nrouter 7\n" 4 7;
  let ids text =
    Array.to_list (Array.map (fun (r : Router.t) -> r.Router.id) (Io.of_string text).Dataset.routers)
  in
  Alcotest.(check (list int)) "distinct ids in any order load" [ 5; 3; 4; -1 ]
    (ids "router 5\nrouter 3\nrouter 4\nrouter -1\n")

(* The packed layout, pinned: a router read with k samples reaches no
   more than 2k words plus a constant (the boxed pairs it replaced took
   8 per sample). *)
let test_io_packed_layout () =
  let k = 1000 in
  let buf = Buffer.create (k * 16) in
  Buffer.add_string buf "router 7\n";
  for i = 0 to k - 1 do
    Printf.bprintf buf "ping %d %.4f\n" (i mod 100) (float_of_int i /. 7.0)
  done;
  let ds = Io.of_string (Buffer.contents buf) in
  let r = ds.Dataset.routers.(0) in
  Alcotest.(check int) "samples" k (Rtts.length r.Router.ping_rtts);
  let words = Obj.reachable_words (Obj.repr r) in
  if words > (2 * k) + 32 then
    Alcotest.failf "router with %d samples reaches %d words (> 2k + 32)" k words

let test_io_file_roundtrip () =
  let ds = make_ds () in
  let path = Filename.temp_file "hoiho_test" ".itdk" in
  Io.save path ds;
  let ds2 = Io.load path in
  Sys.remove path;
  Alcotest.(check string) "file round-trip" (Io.to_string ds) (Io.to_string ds2)

(* the channel reader refills a 64 KiB buffer: a line longer than that
   must grow it, and the last line may lack its newline *)
let test_io_line_ends () =
  Alcotest.(check string) "bare itdk, no newline" "" (Io.of_string "itdk").Dataset.label;
  Alcotest.(check string) "label with spaces" "a  b" (Io.of_string "\nitdk a  b").Dataset.label;
  let long = String.make 200_000 'a' ^ ".he.net" in
  let r = Router.make 5 ~hostnames:[ long ] in
  let ds = Helpers.dataset [ r ] (Helpers.std_vps ()) in
  let path = Filename.temp_file "hoiho_test" ".itdk" in
  let text = Io.to_string ds in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub text 0 (String.length text - 1)));
  let ds2 = Io.load path in
  Sys.remove path;
  Alcotest.(check string) "long line round-trip" text (Io.to_string ds2)

(* a failed load closes its file *)
let test_io_load_closes_on_failure () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let path = Filename.temp_file "hoiho_test" ".itdk" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "router 1\nping 1 abc\n");
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for _ = 1 to 200 do
    match Io.load path with
    | _ -> Alcotest.fail "malformed corpus accepted"
    | exception Failure _ -> ()
  done;
  let after = open_fds () in
  Sys.remove path;
  Alcotest.(check int) "open descriptors after 200 failed loads" before after

(* --- in-place numbers against the stdlib ---

   The reader parses plain decimals in place and hands every other
   spelling to the stdlib. Whatever the spelling, a one-router corpus
   must read to the stdlib's value, bit for bit, or fail exactly when
   the stdlib rejects, with the reader's message for that field. *)

let gen_digits n = QCheck.Gen.(string_size ~gen:(char_range '0' '9') (return n))

let gen_float_spelling =
  let open QCheck.Gen in
  let magnitude =
    map2 (fun m e -> m *. (10.0 ** float_of_int e)) (float_range (-1.0) 1.0) (int_range (-12) 16)
  in
  (* sign, leading zeros, digits, point, digits, exponent, each
     possibly absent: mantissas of 16 to 19 digits, [.5], [5.], [+],
     [-0], [1e] and friends *)
  let composed =
    let* sign = oneofl [ ""; "-"; "+" ] in
    let* zeros = oneofl [ ""; "0"; "00" ] in
    let* a = int_range 0 19 >>= gen_digits in
    let* point = oneofl [ ""; "."; "." ] in
    let* b = int_range 0 19 >>= gen_digits in
    let* exp = oneofl [ ""; ""; ""; "e5"; "E-3"; "e"; "e+308"; "e-400" ] in
    let* underscore = bool in
    let s = zeros ^ a ^ point ^ (if point = "" then "" else b) ^ exp in
    let s =
      if underscore && String.length s > 1 then
        String.sub s 0 1 ^ "_" ^ String.sub s 1 (String.length s - 1)
      else s
    in
    return (sign ^ s)
  in
  frequency
    [
      (4, map2 (fun n x -> Printf.sprintf "%.*f" n x) (int_range 0 17) magnitude);
      (1, map (Printf.sprintf "%.17g") magnitude);
      (1, map (Printf.sprintf "%h") magnitude);
      (1, map (Printf.sprintf "%e") magnitude);
      (4, composed);
      ( 1,
        oneofl
          [ "-0"; "-0.0"; "0"; ".5"; "5."; "-.5"; "1.5.5"; "--1"; "-"; ""; "nan"; "-nan"; "inf";
            "-inf"; "infinity"; "0x1p3"; "\t1.5"; "1.5\r"; "123456789012345"; "1234567890123456";
            "0.000000000000001"; "999999999999999.9" ] );
    ]

let gen_int_spelling =
  let open QCheck.Gen in
  let plain =
    let* sign = oneofl [ ""; "-"; "+" ] in
    let* n = frequency [ (1, int_range 1 17); (3, int_range 18 20) ] in
    let* s = gen_digits n in
    return (sign ^ s)
  in
  frequency
    [
      (8, plain);
      (1, oneofl [ "-0"; "0x1F"; "-0o17"; "0b101"; "0u42"; "1_000"; "1.0"; "1e3"; "-"; ""; "\t5" ]);
    ]

let read text = match Io.of_string text with ds -> Ok ds | exception Failure msg -> Error msg

let prop_float_spelling f =
  match (float_of_string_opt f, read ("router 1\nping 7 " ^ f ^ "\n")) with
  | Some x, Ok ds ->
      let got = snd (List.hd (Rtts.to_list ds.Dataset.routers.(0).Router.ping_rtts)) in
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float got)
      || QCheck.Test.fail_reportf "%S: read %h, stdlib %h" f got x
  | None, Error msg ->
      msg = Printf.sprintf "Itdk.Io.read: line 2: bad RTT %S" f
      || QCheck.Test.fail_reportf "%S: message %S" f msg
  | Some _, Error msg -> QCheck.Test.fail_reportf "%S: stdlib accepts, reader: %S" f msg
  | None, Ok _ -> QCheck.Test.fail_reportf "%S: stdlib rejects, reader accepts" f

(* an int ends a line or is followed by another field *)
let prop_int_spelling f =
  List.for_all
    (fun (text, get) ->
      match (int_of_string_opt f, read text) with
      | Some n, Ok ds ->
          get ds = n || QCheck.Test.fail_reportf "%S: read %d, stdlib %d" f (get ds) n
      | None, Error msg ->
          msg = Printf.sprintf "Itdk.Io.read: line 1: bad router id %S" f
          || QCheck.Test.fail_reportf "%S: message %S" f msg
      | Some _, Error msg -> QCheck.Test.fail_reportf "%S: stdlib accepts, reader: %S" f msg
      | None, Ok _ -> QCheck.Test.fail_reportf "%S: stdlib rejects, reader accepts" f)
    [
      ("router " ^ f ^ "\n", fun ds -> ds.Dataset.routers.(0).Router.id);
      ("link " ^ f ^ " 2\n", fun ds -> fst ds.Dataset.links.(0));
    ]

let qcheck_numbers =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:3000 ~name:"floats read as float_of_string does"
         (QCheck.make ~print:(Printf.sprintf "%S") gen_float_spelling)
         prop_float_spelling);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2000 ~name:"ints read as int_of_string does"
         (QCheck.make ~print:(Printf.sprintf "%S") gen_int_spelling)
         prop_int_spelling);
  ]

let suites =
  [
    ( "itdk",
      [
        tc "min rtt" test_min_rtt;
        tc "has flags" test_has_flags;
        tc "suffixes" test_suffixes;
        tc "dataset counts" test_dataset_counts;
        tc "by_suffix" test_by_suffix;
        tc "vp lookup" test_vp_lookup;
        tc "summary" test_summary_mentions_label;
      ] );
    ( "itdk.io",
      [
        tc "roundtrip handmade" test_io_roundtrip_handmade;
        tc "roundtrip generated" test_io_roundtrip_generated;
        tc "preserves truth" test_io_preserves_truth;
        tc "rejects garbage" test_io_rejects_garbage;
        tc "errors name the line" test_io_errors_name_the_line;
        tc "duplicate router ids are refused" test_io_duplicate_ids;
        tc "packed layout" test_io_packed_layout;
        tc "line ends" test_io_line_ends;
        tc "file roundtrip" test_io_file_roundtrip;
        tc "failed load closes its file" test_io_load_closes_on_failure;
      ]
      @ qcheck_numbers );
  ]
