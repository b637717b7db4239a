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

(* A corpus written while the generator's answer key rode on the
   router record: truth, hint and hosthint lines close each router. It
   loads equal to the same corpus without them. *)
let legacy_corpus =
  "itdk legacy\n\
   vp 0 iad-us 38.944400 -77.455800 washington|us|dc\n\
   link 0 1\n\
   router 0\n\
   asn 6939\n\
   host r1.ash.he.net\n\
   ping 0 1.2000\n\
   trace 0 3.5000\n\
   truth 39.043800 -77.487400 0 ashburn|us|va\n\
   hint ash\n\
   hosthint r1.ash.he.net ash\n\
   router 1\n\
   host r2.lon.he.net\n\
   truth 51.507400 -0.127800 1 london|gb|\n\
   hosthint r2.lon.he.net -\n\
   router 2\n\
   truth 51.507400 -0.127800 0 london|gb|\n"

let test_io_skips_legacy_truth () =
  let stripped =
    String.split_on_char '\n' legacy_corpus
    |> List.filter (fun line ->
           not
             (List.exists
                (fun prefix -> Hoiho_util.Strutil.has_prefix ~prefix line)
                [ "truth "; "hint "; "hosthint " ]))
    |> String.concat "\n"
  in
  let ds = Io.of_string legacy_corpus in
  Alcotest.(check int) "routers" 3 (Dataset.n_routers ds);
  Alcotest.(check bool) "loads equal to the corpus without truth" true
    (ds = Io.of_string stripped);
  Alcotest.(check string) "writes no truth" stripped (Io.to_string ds)

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
    ("ping 1 2.0\n", 1, "ping outside router");
    ("host a.example.net\n", 1, "host outside router");
    ("truth 1.0 2.0 0 k\n", 1, "truth outside router");
    ("hint ash\n", 1, "hint outside router");
    ("hosthint a.example.net -\n", 1, "hosthint outside router");
    ("vp -5 a 1.0 0.0 x|y\n", 1, "VP id -5 outside 0..65535");
    ("itdk x\nvp 0 a 1.0 0.0 x|y\nvp 50000000 b 1.0 0.0 x|y\n", 3, "VP id 50000000 outside");
    ("vp 65536 a 1.0 0.0 x|y\n", 1, "VP id 65536 outside");
    ("router 1\nping 1 1.5.5\n", 2, "bad RTT \"1.5.5\"");
    ("router 1\nping 1 1e\n", 2, "bad RTT \"1e\"");
    ("router 1\nping 12345678901234567890 1.0\n", 2, "bad VP id \"12345678901234567890\"");
    ("router 1\nping 1  2.0\n", 2, "bad RTT \"\"");
    ("itdk dup\nvp 0 a 1.0 0.0 x|y\nvp 0 b 50.0 8.0 x|z\nrouter 1\n", 3, "duplicate VP id 0");
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

(* The packed layouts, pinned: a router read with k samples of at most
   four decimals, from VPs below 256 and under 1677.7216 ms, reaches no
   more than k/2 words plus a constant, so its samples take 4 bytes
   each (6 would be 3k/4 words, 12 would be 1.5k; the boxed pairs the
   packing replaced took 8 per sample). One more sample past either
   limit of that layout moves all of them to 6 bytes. *)
let test_io_packed_layout () =
  let k = 1000 in
  let words extra =
    let buf = Buffer.create (k * 16) in
    Buffer.add_string buf "router 7\n";
    for i = 0 to k - 1 do
      Printf.bprintf buf "ping %d %.4f\n" (i mod 100) (float_of_int i /. 7.0)
    done;
    Buffer.add_string buf extra;
    let r = (Io.of_string (Buffer.contents buf)).Dataset.routers.(0) in
    Alcotest.(check int) "samples"
      (if extra = "" then k else k + 1)
      (Rtts.length r.Router.ping_rtts);
    Obj.reachable_words (Obj.repr r)
  in
  let narrow = words "" in
  if narrow > (k / 2) + 32 then
    Alcotest.failf "router with %d samples reaches %d words (> k/2 + 32)" k narrow;
  List.iter
    (fun extra ->
      let w = words extra in
      if w <= (k / 2) + 32 || w > (3 * k / 4) + 32 then
        Alcotest.failf "with %S the router reaches %d words (want k/2 + 32 < w <= 3k/4 + 32)"
          extra w)
    [ "ping 256 1.0000\n"; "ping 1 1677.7216\n" ]

(* The reader against the wire at each layout's limits: routers hold
   samples on both sides of every limit, before and after the narrow
   ones, so the builder widens at its first sample and mid-value, once
   or twice. Each loaded value equals [Rtts.of_list] of the same
   samples, so the reader's tick path picks the layout the rule does,
   and the corpus writes back byte for byte. *)
let test_io_layout_limits () =
  let narrow = [ (0, "0.0000"); (17, "12.3456"); (255, "1677.7215") ] in
  let past =
    [ (256, "1.0000"); (1, "1677.7216"); (65535, "214748.3647"); (65536, "2.5000");
      (2, "214748.3648"); (3, "-0.0001"); (4, "-0.0000"); (-1, "1.0000") ]
  in
  let rows =
    (narrow :: List.concat_map (fun p -> [ narrow @ [ p ]; p :: narrow ]) past)
    @ [ ((256, "1.0000") :: narrow) @ [ (2, "214748.3648") ] ]
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "itdk limits\n";
  List.iteri
    (fun id row ->
      Printf.bprintf buf "router %d\n" id;
      List.iter (fun (vp, ms) -> Printf.bprintf buf "ping %d %s\n" vp ms) row;
      List.iter (fun (vp, ms) -> Printf.bprintf buf "trace %d %s\n" vp ms) (List.rev row))
    rows;
  let text = Buffer.contents buf in
  let ds = Io.of_string text in
  List.iteri
    (fun id row ->
      let r = ds.Dataset.routers.(id) in
      let want l = Rtts.of_list (List.map (fun (vp, ms) -> (vp, float_of_string ms)) l) in
      if r.Router.ping_rtts <> want row || r.Router.trace_rtts <> want (List.rev row) then
        Alcotest.failf "router %d loads other values than of_list builds" id)
    rows;
  Alcotest.(check string) "writes back byte for byte" text (Io.to_string ds)

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
   spelling to the stdlib; an RTT of at most four decimals goes into
   its router as a tick count without becoming a float. Whatever the
   spelling, a one-router corpus must read to the stdlib's value, bit
   for bit, in the packed value [Rtts.of_list] builds from it, or fail
   exactly when the stdlib rejects, with the reader's message for that
   field. In the tick path, this property fails on a digit count that
   may overflow (15-digit RTTs), and "errors name the line" on a read
   past the buffer on a [ping] line without its RTT. *)

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
      let rtts = ds.Dataset.routers.(0).Router.ping_rtts in
      let got = snd (List.hd (Rtts.to_list rtts)) in
      (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float got)
      || QCheck.Test.fail_reportf "%S: read %h, stdlib %h" f got x)
      && (rtts = Rtts.of_list [ (7, x) ]
         || QCheck.Test.fail_reportf "%S: read value differs from Rtts.of_list [(7, %h)]" f x)
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

(* --- the three Rtts layouts against a list reference ---

   A value packs 4 bytes per sample when every sample is a tick count
   below 2^24 with an 8-bit VP id, 6 after a tag byte when every one is
   a tick count below 2^31 with a 16-bit VP id, and 12 after a tag byte
   otherwise. In every layout each sample must read back bit for bit,
   equal values must mean bitwise-equal samples, and each reader must
   agree with its list counterpart. *)

let bits = Int64.bits_of_float
let same_sample (v, x) (w, y) = v = w && Int64.equal (bits x) (bits y)
let same_samples a b = List.length a = List.length b && List.for_all2 same_sample a b

(* the bytes per sample the layout rule gives, read off the corpus
   text: an RTT is a tick count when its four-decimal spelling reads
   back as it, bit for bit *)
let layout_rule l =
  let ticks (vp, ms) bound =
    vp >= 0 && Float.is_finite ms && (not (Float.sign_bit ms)) && ms < bound
    && Int64.equal (bits (float_of_string (Printf.sprintf "%.4f" ms))) (bits ms)
  in
  if List.for_all (fun ((vp, _) as s) -> vp < 256 && ticks s 1677.7216) l then 4
  else if List.for_all (fun ((vp, _) as s) -> vp < 65536 && ticks s 214748.3648) l then 6
  else 12

(* the words a packed value of [n] >= 1 samples reaches: a string of
   4n bytes, or of 6n + 1 or 12n + 1 *)
let packed_words n ~width = ((if width = 4 then 4 * n else (width * n) + 1) / 8) + 2

(* tick counts and VP ids on both sides of each layout's limits *)
let tick_limits = [ 0; 0xff_ffff; 0x100_0000; 0x7fff_ffff ]
let vp_limits = [ 0; 255; 256; 65535; 65536 ]

let gen_tick_ms =
  QCheck.Gen.(
    map
      (fun k -> float_of_int k /. 1e4)
      (frequency
         [ (4, int_range 0 3_000_000); (2, int_range 0 0x7fff_ffff); (2, oneofl tick_limits) ]))

let gen_any_ms =
  QCheck.Gen.(
    frequency
      [
        (4, gen_tick_ms);
        (2, map Int64.float_of_bits int64);
        (2, float_range (-300.0) 300.0);
        ( 1,
          oneofl
            [ -0.0; 0.0; nan; infinity; neg_infinity; 214748.3648; -1.5; 12.34567; 1e-5;
              Float.succ 1.5 ] );
      ])

let gen_narrow_ms =
  QCheck.Gen.(
    map
      (fun k -> float_of_int k /. 1e4)
      (frequency [ (4, int_range 0 3_000_000); (1, oneofl [ 0; 0xff_ffff ]) ]))

let gen_narrow_vp = QCheck.Gen.(frequency [ (6, int_range 0 255); (1, oneofl [ 0; 255 ]) ])
let gen_vp16 = QCheck.Gen.(frequency [ (6, int_range 0 300); (2, oneofl [ 0; 255; 256; 65535 ]) ])

let gen_vp =
  QCheck.Gen.(
    frequency
      [
        (6, int_range 0 300);
        (2, oneofl vp_limits);
        (1, oneofl [ -1; Int32.to_int Int32.max_int; Int32.to_int Int32.min_int ]);
      ])

let gen_narrow_samples = QCheck.Gen.(list_size (int_range 1 12) (pair gen_narrow_vp gen_narrow_ms))

(* a list of the narrow layout's samples with one more from [gen] at
   any position, so that the builder widens mid-value as often as at
   its first sample *)
let gen_one_wider gen =
  QCheck.Gen.(
    let* l = gen_narrow_samples in
    let* s = gen in
    let* i = int_bound (List.length l) in
    return (List.filteri (fun j _ -> j < i) l @ (s :: List.filteri (fun j _ -> j >= i) l)))

(* lists that fit each layout by construction, lists one sample past
   the narrow one, and lists that mix every kind of sample *)
let gen_samples =
  QCheck.Gen.(
    frequency
      [
        (2, gen_narrow_samples);
        (2, list_size (int_range 1 12) (pair gen_vp16 gen_tick_ms));
        (2, gen_one_wider (pair gen_vp gen_any_ms));
        (3, list_size (int_range 0 12) (pair gen_vp gen_any_ms));
      ])

(* a list equal to [a] or one step from it: a sample with another VP
   id, sign, last bit or ulp, one sample fewer or more *)
let gen_variant a =
  let open QCheck.Gen in
  let tweaks =
    [ (fun (v, x) -> (v lxor 1, x)); (fun (v, x) -> (v, -.x)); (fun (v, x) -> (v, Float.succ x));
      (fun (v, x) -> (v, Int64.float_of_bits (Int64.logxor (bits x) 1L))) ]
  in
  let n = List.length a in
  let tweak =
    let* i = int_bound (max 0 (n - 1)) in
    let* tweak = oneofl tweaks in
    return (List.mapi (fun j s -> if j = i then tweak s else s) a)
  in
  frequency
    [
      (2, return a);
      (3, tweak);
      (1, return (List.filteri (fun j _ -> j < n - 1) a));
      (1, map (fun s -> a @ [ s ]) (pair gen_vp gen_any_ms));
    ]

(* a sample given as a tick count or as milliseconds *)
type item = Ticks of int * int | Ms of int * float

let gen_items =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (frequency
         [
           ( 3,
             map2
               (fun vp k -> Ticks (vp, k))
               gen_vp
               (frequency
                  [ (3, int_range 0 0x7fff_ffff); (2, int_range 0 3_000_000);
                    (2, oneofl tick_limits);
                    (1, oneofl [ 0x8000_0000; -1; -5; 1 lsl 40 ]) ]) );
           (1, map (fun (vp, ms) -> Ms (vp, ms)) (pair gen_vp gen_any_ms));
         ]))

type layout_case = {
  samples : (int * float) list;
  variant : (int * float) list;
  items : item list;
  narrow : (int * float) list;
  nb : int;
  holes : int;
  slack : float;
  exact : bool;
}

let gen_layout_case =
  QCheck.Gen.(
    let* samples = gen_samples in
    let* variant = gen_variant samples in
    let* items = gen_items in
    let* narrow = gen_narrow_samples in
    let* nb = frequency [ (4, oneofl [ 0; 1; 150; 301 ]); (1, return 65536) ] in
    let* holes = int_range 0 7 in
    let* slack = oneofl [ 0.0; 0.5; 1.0; -1.0 ] in
    let* exact = bool in
    return { samples; variant; items; narrow; nb; holes; slack; exact })

let print_samples l =
  String.concat "; " (List.map (fun (v, x) -> Printf.sprintf "(%d, %h)" v x) l)

let print_layout_case c =
  Printf.sprintf "samples [%s]\nvariant [%s]\nnarrow [%s]\nnb %d, holes %d, slack %g, exact %b"
    (print_samples c.samples) (print_samples c.variant) (print_samples c.narrow) c.nb c.holes
    c.slack c.exact

(* bounds in [0, 300) with a nan hole every eighth id, offset by
   [holes]; when [exact], each sampled id's bound is its last sample's
   RTT plus [slack], so that sample meets it with nothing to spare *)
let bounds c =
  let b =
    Float.Array.init c.nb (fun i ->
        if (i + c.holes) mod 8 = 0 then nan else float_of_int (((i * 37) + c.holes) mod 300))
  in
  if c.exact then
    List.iter (fun (v, m) -> if v >= 0 && v < c.nb then Float.Array.set b v (m +. c.slack)) c.samples;
  b

let ref_first_below l ~slack bound =
  let nb = Float.Array.length bound in
  let rec go i = function
    | [] -> -1
    | (v, m) :: rest ->
        if v < 0 || v >= nb || not (m +. slack >= Float.Array.get bound v) then i
        else go (i + 1) rest
  in
  go 0 l

let ref_min = function
  | [] -> None
  | s :: rest ->
      Some (List.fold_left (fun ((_, bm) as best) ((_, m) as x) -> if m < bm then x else best) s rest)

let same_option same a b =
  match (a, b) with None, None -> true | Some x, Some y -> same x y | _ -> false

let maps =
  [ ("identity", fun v x -> (v, x)); ("to one tick value", fun v _ -> (v land 0xffff, 1.5));
    ("negate", fun v x -> (v, -.x)); ("next vp", fun v x -> (v lxor 1, x +. 0.5)) ]

let prop_layouts c =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let l = c.samples in
  let t = Rtts.of_list l in
  let n = List.length l in
  let words t = Obj.reachable_words (Obj.repr t) in
  (same_samples (Rtts.to_list t) l || fail "to_list (of_list l) <> l")
  && (n = 0 || words t = packed_words n ~width:(layout_rule l)
     || fail "%d samples reach %d words; the rule says %d bytes each" n (words t) (layout_rule l))
  && Rtts.length t = n
  && (let u = Rtts.of_list c.variant in
      let same = same_samples l c.variant in
      ((t = u) = same && (compare t u = 0) = same)
      || fail "of_list equality %b, compare %d, samples equal %b" (t = u) (compare t u) same)
  && List.for_all
       (fun id ->
         same_option (fun x y -> Int64.equal (bits x) (bits y)) (Rtts.find_opt t id)
           (List.assoc_opt id l)
         || fail "find_opt %d" id)
       (List.map fst l @ [ 65536; -2 ])
  && (same_option same_sample (Rtts.min t) (ref_min l) || fail "min")
  && (let f v x = v land 1 = 0 || x > 150.0 in
      let kept = List.filter (fun (v, x) -> f v x) l in
      (Rtts.for_all f t = List.for_all (fun (v, x) -> f v x) l || fail "for_all")
      && (same_samples (Rtts.to_list (Rtts.filter f t)) kept || fail "filter")
      && (Rtts.filter f t = Rtts.of_list kept || fail "filter builds another layout"))
  && List.for_all
       (fun (name, f) ->
         let mapped = List.map (fun (v, x) -> f v x) l in
         (same_samples (Rtts.to_list (Rtts.map f t)) mapped || fail "map %s" name)
         && (Rtts.map f t = Rtts.of_list mapped || fail "map %s builds another layout" name))
       maps
  && (let bound = bounds c in
      let got = Rtts.first_below t ~slack:c.slack bound
      and want = ref_first_below l ~slack:c.slack bound in
      got = want || fail "first_below: %d, reference %d" got want)
  && (let b = Rtts.builder () and b' = Rtts.builder () in
      List.iter
        (function
          | Ticks (vp, k) ->
              Rtts.add_ticks b vp k;
              Rtts.add b' vp (float_of_int k /. 1e4)
          | Ms (vp, ms) ->
              Rtts.add b vp ms;
              Rtts.add b' vp ms)
        c.items;
      (Rtts.contents b = Rtts.contents b' || fail "add_ticks builds another value than add")
      && begin
           (* the builder, cleared while it holds a 12-byte value,
              packs 4-byte samples again *)
           Rtts.add b 0 (-0.0);
           Rtts.clear b;
           List.iter (fun (vp, ms) -> Rtts.add b vp ms) c.narrow;
           let v = Rtts.contents b in
           (v = Rtts.of_list c.narrow
           && words v = packed_words (List.length c.narrow) ~width:4)
           || fail "a cleared builder does not pack 4-byte samples"
         end)

let qcheck_layouts =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"rtts layouts agree with the list reference"
       (QCheck.make ~print:print_layout_case gen_layout_case)
       prop_layouts)

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
        qcheck_layouts;
      ] );
    ( "itdk.io",
      [
        tc "roundtrip handmade" test_io_roundtrip_handmade;
        tc "roundtrip generated" test_io_roundtrip_generated;
        tc "skips legacy truth lines" test_io_skips_legacy_truth;
        tc "rejects garbage" test_io_rejects_garbage;
        tc "errors name the line" test_io_errors_name_the_line;
        tc "duplicate router ids are refused" test_io_duplicate_ids;
        tc "packed layout" test_io_packed_layout;
        tc "layout limits over the wire" test_io_layout_limits;
        tc "line ends" test_io_line_ends;
        tc "file roundtrip" test_io_file_roundtrip;
        tc "failed load closes its file" test_io_load_closes_on_failure;
      ]
      @ qcheck_numbers );
  ]
