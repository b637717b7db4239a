module Prng = Hoiho_util.Prng
module Strutil = Hoiho_util.Strutil
module Stat = Hoiho_util.Stat
module Json = Hoiho_util.Json

let tc = Helpers.tc

(* --- Prng --- *)

let test_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Prng.bits64 a = Prng.bits64 b)

let test_split_independence () =
  let parent = Prng.create 3 in
  let child = Prng.split parent in
  (* drawing from the child must not equal continuing the parent *)
  Alcotest.(check bool) "independent streams" false
    (Prng.bits64 child = Prng.bits64 parent)

let test_int_bounds () =
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_int_covers_range () =
  let rng = Prng.create 13 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int rng 5) <- true
  done;
  Array.iteri (fun i s -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true s) seen

let test_float_bounds () =
  let rng = Prng.create 17 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_range_inclusive () =
  let rng = Prng.create 19 in
  let lo = ref max_int and hi = ref min_int in
  for _ = 1 to 2000 do
    let v = Prng.range rng 3 6 in
    lo := min !lo v;
    hi := max !hi v
  done;
  Alcotest.(check int) "min reached" 3 !lo;
  Alcotest.(check int) "max reached" 6 !hi

let test_weighted_respects_zero () =
  let rng = Prng.create 23 in
  for _ = 1 to 200 do
    let v = Prng.weighted rng [| ("never", 0.0); ("always", 1.0) |] in
    Alcotest.(check string) "zero weight never drawn" "always" v
  done

let test_weighted_proportions () =
  let rng = Prng.create 29 in
  let a = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.weighted rng [| ("a", 9.0); ("b", 1.0) |] = "a" then incr a
  done;
  Alcotest.(check bool) "a drawn ~90%" true (!a > 8500 && !a < 9500)

let test_shuffle_is_permutation () =
  let rng = Prng.create 31 in
  let arr = Array.init 20 (fun i -> i) in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

let test_sample_distinct () =
  let rng = Prng.create 37 in
  let arr = Array.init 50 (fun i -> i) in
  let s = Prng.sample rng 10 arr in
  Alcotest.(check int) "ten elements" 10 (Array.length s);
  let uniq = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "all distinct" 10 (List.length uniq)

let test_gaussian_moments () =
  let rng = Prng.create 41 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Prng.gaussian rng ~mean:5.0 ~stddev:2.0) in
  let mean = Stat.mean xs in
  Alcotest.(check bool) "mean near 5" true (abs_float (mean -. 5.0) < 0.1)

let test_exponential_positive () =
  let rng = Prng.create 43 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Prng.exponential rng ~mean:3.0 > 0.0)
  done

(* --- Strutil --- *)

let test_char_classes () =
  Alcotest.(check bool) "alpha a" true (Strutil.is_alpha 'a');
  Alcotest.(check bool) "alpha Z" true (Strutil.is_alpha 'Z');
  Alcotest.(check bool) "alpha 3" false (Strutil.is_alpha '3');
  Alcotest.(check bool) "digit 3" true (Strutil.is_digit '3');
  Alcotest.(check bool) "digit -" false (Strutil.is_digit '-');
  Alcotest.(check bool) "alnum 7" true (Strutil.is_alnum '7');
  Alcotest.(check bool) "alnum ." false (Strutil.is_alnum '.')

let test_split_labels () =
  Alcotest.(check (list string)) "basic" [ "a"; "b"; "c" ] (Strutil.split_labels "a.b.c");
  Alcotest.(check (list string)) "drops empty" [ "a"; "c" ] (Strutil.split_labels "a..c");
  Alcotest.(check (list string)) "empty" [] (Strutil.split_labels "")

let test_split_punct () =
  Alcotest.(check (list string)) "mixed" [ "xe"; "0"; "0"; "ash1" ]
    (Strutil.split_punct "xe-0-0.ash1");
  Alcotest.(check (list string)) "underscores" [ "a"; "b" ] (Strutil.split_punct "a_b");
  Alcotest.(check (list string)) "none" [ "abc123" ] (Strutil.split_punct "abc123")

let test_alpha_runs () =
  Alcotest.(check (list string)) "runs" [ "ash"; "x" ] (Strutil.alpha_runs "ash1x");
  Alcotest.(check (list string)) "digits only" [] (Strutil.alpha_runs "123")

let test_strip_digits () =
  Alcotest.(check string) "trailing" "lhr" (Strutil.strip_trailing_digits "lhr15");
  Alcotest.(check string) "none" "lhr" (Strutil.strip_trailing_digits "lhr");
  Alcotest.(check string) "all digits" "" (Strutil.strip_trailing_digits "42");
  Alcotest.(check string) "leading" "ge5" (Strutil.strip_leading_digits "100ge5")

let test_suffix_ops () =
  Alcotest.(check bool) "has_suffix" true (Strutil.has_suffix ~suffix:"net" "he.net");
  Alcotest.(check bool) "not suffix" false (Strutil.has_suffix ~suffix:"com" "he.net");
  Alcotest.(check (option string)) "drop with dot" (Some "core1.ash1")
    (Strutil.drop_suffix ~suffix:"he.net" "core1.ash1.he.net");
  Alcotest.(check (option string)) "no match" None
    (Strutil.drop_suffix ~suffix:"example.com" "core1.he.net");
  Alcotest.(check bool) "has_prefix" true (Strutil.has_prefix ~prefix:"core" "core1")

let test_is_subsequence () =
  Alcotest.(check bool) "ash in ashburn" true (Strutil.is_subsequence "ash" "ashburn");
  Alcotest.(check bool) "tky in tokyo" true (Strutil.is_subsequence "tky" "tokyo");
  Alcotest.(check bool) "xyz not in tokyo" false (Strutil.is_subsequence "xyz" "tokyo");
  Alcotest.(check bool) "empty in anything" true (Strutil.is_subsequence "" "abc")

let test_longest_common_run () =
  Alcotest.(check int) "overlap" 8 (Strutil.longest_common_run "ftcollins" "fortcollins");
  Alcotest.(check int) "identical" 3 (Strutil.longest_common_run "abc" "abc");
  Alcotest.(check int) "none" 0 (Strutil.longest_common_run "abc" "xyz")

let test_chunks () =
  let chunks = Strutil.chunks_of_classes "ash1-b" in
  Alcotest.(check int) "four chunks" 4 (List.length chunks);
  (match chunks with
  | [ `Alpha "ash"; `Digit "1"; `Other "-"; `Alpha "b" ] -> ()
  | _ -> Alcotest.fail "unexpected chunk decomposition");
  Alcotest.(check int) "empty" 0 (List.length (Strutil.chunks_of_classes ""))

(* --- Stat --- *)

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stat.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stat.mean [])

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "single" 5.0 (Stat.median [ 5.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stat.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p90" 90.0 (Stat.percentile 90.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stat.percentile 100.0 xs)

let test_cdf_points () =
  let pts = Stat.cdf_points [ 1.0; 2.0 ] [ 0.5; 1.5; 1.8 ] in
  Alcotest.(check int) "two points" 2 (List.length pts);
  Alcotest.(check (float 1e-9)) "cdf at 2" 1.0 (snd (List.nth pts 1))

let test_fraction_pct () =
  Alcotest.(check (float 1e-9)) "fraction" 0.5
    (Stat.fraction (fun x -> x > 1) [ 1; 2; 1; 3 ]);
  Alcotest.(check (float 1e-9)) "pct" 25.0 (Stat.pct 1 4);
  Alcotest.(check (float 1e-9)) "pct zero denom" 0.0 (Stat.pct 1 0)

(* --- Json nesting depth --- *)

let nested d = String.make d '[' ^ String.make d ']'
let repeat k s = String.concat "" (List.init k (fun _ -> s))

let test_json_depth_cap () =
  let m = Json.max_depth in
  Alcotest.(check bool) "max_depth lists parse" true (Result.is_ok (Json.parse (nested m)));
  let deep_error what path offset =
    Printf.sprintf "%s: expected at most %d nested lists and objects, got %s at depth %d, offset %d"
      path m what (m + 1) offset
  in
  Alcotest.(check (result reject string)) "one list deeper"
    (Error (deep_error "a list" ("$" ^ repeat m "[0]") m))
    (Result.map ignore (Json.parse (nested (m + 1))));
  (* the path names keys and indices on the way down *)
  let doc = {|{"a":[1,2,|} ^ nested (m - 1) ^ "]}" in
  Alcotest.(check (result reject string)) "keys and indices in the path"
    (Error (deep_error "a list" ("$.a[2]" ^ repeat (m - 2) "[0]") (String.length {|{"a":[1,2,|} + m - 2)))
    (Result.map ignore (Json.parse doc));
  let objects k = repeat k {|{"k":|} ^ "1" ^ String.make k '}' in
  Alcotest.(check bool) "max_depth objects parse" true (Result.is_ok (Json.parse (objects m)));
  Alcotest.(check (result reject string)) "one object deeper"
    (Error (deep_error "an object" ("$" ^ repeat m ".k") (5 * m)))
    (Result.map ignore (Json.parse (objects (m + 1))));
  (* a 1 MiB body, the HTTP cap, of nested lists *)
  Alcotest.(check bool) "524,288 nested lists are an error" true
    (Result.is_error (Json.parse (nested 524_288)))

let suites =
  [
    ("util.json", [ tc "nesting deeper than max_depth is an error" test_json_depth_cap ]);
    ( "util.prng",
      [
        tc "determinism" test_determinism;
        tc "seed sensitivity" test_seed_sensitivity;
        tc "split independence" test_split_independence;
        tc "int bounds" test_int_bounds;
        tc "int covers range" test_int_covers_range;
        tc "float bounds" test_float_bounds;
        tc "range inclusive" test_range_inclusive;
        tc "weighted zero" test_weighted_respects_zero;
        tc "weighted proportions" test_weighted_proportions;
        tc "shuffle permutation" test_shuffle_is_permutation;
        tc "sample distinct" test_sample_distinct;
        tc "gaussian moments" test_gaussian_moments;
        tc "exponential positive" test_exponential_positive;
      ] );
    ( "util.strutil",
      [
        tc "char classes" test_char_classes;
        tc "split labels" test_split_labels;
        tc "split punct" test_split_punct;
        tc "alpha runs" test_alpha_runs;
        tc "strip digits" test_strip_digits;
        tc "suffix ops" test_suffix_ops;
        tc "is_subsequence" test_is_subsequence;
        tc "longest common run" test_longest_common_run;
        tc "chunks of classes" test_chunks;
      ] );
    ( "util.stat",
      [
        tc "mean" test_mean;
        tc "median" test_median;
        tc "percentile" test_percentile;
        tc "cdf points" test_cdf_points;
        tc "fraction/pct" test_fraction_pct;
      ] );
  ]
