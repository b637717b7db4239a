(* Serving layer: LRU unit tests (capacity, eviction order, negative
   entries, shard determinism) and the apply_batch determinism contract
   — identical answers AND identical serve.* work counters at jobs=1
   and jobs=4. *)

module Lru = Hoiho_serve.Lru
module Serve = Hoiho_serve.Serve
module Learned_io = Hoiho.Learned_io
module Pipeline = Hoiho.Pipeline
module Obs = Hoiho_obs.Obs
module Trace = Hoiho_obs.Trace

let tc = Helpers.tc

(* --- Lru --- *)

let test_capacity_eviction () =
  let t = Lru.create ~shards:1 ~capacity:3 () in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Lru.add t "c" 3;
  Alcotest.(check int) "full" 3 (Lru.length t);
  (* touch "a" so "b" is now least-recent *)
  Alcotest.(check (option int)) "a cached" (Some 1) (Lru.find t "a");
  Lru.add t "d" 4;
  Alcotest.(check int) "still at capacity" 3 (Lru.length t);
  Alcotest.(check (option int)) "b evicted (was LRU)" None (Lru.find t "b");
  Alcotest.(check (option int)) "a survived (promoted)" (Some 1) (Lru.find t "a");
  Alcotest.(check (option int)) "c survived" (Some 3) (Lru.find t "c");
  Alcotest.(check (option int)) "d cached" (Some 4) (Lru.find t "d")

let test_eviction_is_lru_order () =
  let t = Lru.create ~shards:1 ~capacity:2 () in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Lru.add t "c" 3;
  (* a was least-recent *)
  Alcotest.(check (option int)) "a evicted" None (Lru.find t "a");
  Lru.add t "d" 4;
  (* b was inserted before c and never touched *)
  Alcotest.(check (option int)) "b evicted" None (Lru.find t "b");
  Alcotest.(check (option int)) "c survived" (Some 3) (Lru.find t "c")

let test_update_in_place () =
  let t = Lru.create ~shards:1 ~capacity:2 () in
  Lru.add t "k" 1;
  Lru.add t "k" 2;
  Alcotest.(check int) "no duplicate entry" 1 (Lru.length t);
  Alcotest.(check (option int)) "latest value" (Some 2) (Lru.find t "k");
  (* overwriting also refreshes recency: re-adding "a" makes "b" the
     least-recent entry, so the next insert evicts "b", not "a" *)
  let t = Lru.create ~shards:1 ~capacity:2 () in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Lru.add t "a" 9;
  Lru.add t "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find t "b");
  Alcotest.(check (option int)) "a survived overwrite" (Some 9) (Lru.find t "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Lru.find t "c")

let test_negative_values () =
  (* 'v may be an option: a cached None is a hit, distinct from absent *)
  let t = Lru.create ~shards:1 ~capacity:4 () in
  Lru.add t "nowhere" None;
  Lru.add t "somewhere" (Some 7);
  Alcotest.(check bool) "negative entry is a hit" true
    (Lru.find t "nowhere" = Some None);
  Alcotest.(check bool) "absent is a miss" true (Lru.find t "other" = None);
  Alcotest.(check bool) "positive entry" true
    (Lru.find t "somewhere" = Some (Some 7))

let test_eviction_counter () =
  Obs.reset ();
  let t = Lru.create ~shards:1 ~capacity:2 () in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Alcotest.(check int) "no evictions yet" 0
    (Obs.count (Obs.counter "serve.cache_evictions"));
  Lru.add t "c" 3;
  Lru.add t "d" 4;
  Alcotest.(check int) "two evictions" 2
    (Obs.count (Obs.counter "serve.cache_evictions"))

let test_shard_determinism () =
  let t = Lru.create ~shards:4 ~capacity:64 () in
  let t' = Lru.create ~shards:4 ~capacity:64 () in
  let keys = List.init 200 (Printf.sprintf "host%d.example.net") in
  List.iter
    (fun k ->
      let s = Lru.shard_of t k in
      Alcotest.(check bool) "in range" true (s >= 0 && s < Lru.shards t);
      Alcotest.(check int) "stable across calls" s (Lru.shard_of t k);
      Alcotest.(check int) "same for equal-config caches" s (Lru.shard_of t' k))
    keys;
  (* the hash must actually spread: 200 keys never land on one shard *)
  let used =
    List.sort_uniq compare (List.map (Lru.shard_of t) keys)
  in
  Alcotest.(check bool) "multiple shards used" true (List.length used > 1)

let test_sharded_capacity () =
  (* capacity is a total budget: 4 shards x 1 entry each *)
  let t = Lru.create ~shards:4 ~capacity:4 () in
  let keys = List.init 100 (Printf.sprintf "k%d") in
  List.iter (fun k -> Lru.add t k 0) keys;
  Alcotest.(check bool) "bounded by capacity" true (Lru.length t <= 4)

let test_clear () =
  let t = Lru.create ~shards:2 ~capacity:8 () in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Lru.clear t;
  Alcotest.(check int) "empty" 0 (Lru.length t);
  Alcotest.(check (option int)) "gone" None (Lru.find t "a");
  (* usable after clear *)
  Lru.add t "a" 5;
  Alcotest.(check (option int)) "re-add works" (Some 5) (Lru.find t "a")

(* --- Serve --- *)

(* one learned pipeline + its snapshot model, shared across the cases
   below (learning the fixture once keeps the suite fast) *)
let fixture =
  lazy
    (let ds, _, _ = Helpers.iata_fixture () in
     let p = Pipeline.run ds in
     (p, Learned_io.of_pipeline p))

let known_hostnames =
  [
    "ae1.cr1.lhr1.example.net";
    "xe-0-0.cr2.fra2.example.net";
    "ge-1-2.cr3.sea3.example.net";
    "et-3-0.cr1.ord1.example.net";
  ]

let batch =
  known_hostnames
  @ [
      "ae1.cr1.lhr1.example.net" (* duplicate *);
      "AE1.CR1.LHR1.Example.NET." (* same key after normalization *);
      "nosuch.hostname.invalid";
      "unrelated.example.org";
    ]

let serve_counters () =
  ( Obs.count (Obs.counter "serve.cache_hits"),
    Obs.count (Obs.counter "serve.cache_misses"),
    Obs.count (Obs.counter "serve.cache_evictions"),
    Obs.count (Obs.counter "serve.applied") )

let test_matches_pipeline () =
  let p, model = Lazy.force fixture in
  let s = Serve.create model in
  List.iter
    (fun h ->
      let expect = Pipeline.geolocate p h in
      Alcotest.(check bool)
        (Printf.sprintf "%s served = in-process" h)
        true
        ((Serve.geolocate_conf s h).Serve.city = expect
        && (Serve.geolocate_uncached_conf s h).Serve.city = expect))
    batch;
  (* at least one fixture hostname must actually geolocate, or this
     test would vacuously compare None with None *)
  Alcotest.(check bool) "fixture geolocates" true
    (List.exists (fun h -> (Serve.geolocate_conf s h).Serve.city <> None) known_hostnames)

let test_negative_entry_cached () =
  Obs.reset ();
  let _, model = Lazy.force fixture in
  let s = Serve.create model in
  Alcotest.(check bool) "no answer" true
    ((Serve.geolocate_conf s "nosuch.hostname.invalid").Serve.city = None);
  let hits_before = Obs.count (Obs.counter "serve.cache_hits") in
  Alcotest.(check bool) "still no answer" true
    ((Serve.geolocate_conf s "nosuch.hostname.invalid").Serve.city = None);
  Alcotest.(check int) "second probe hit the negative entry"
    (hits_before + 1)
    (Obs.count (Obs.counter "serve.cache_hits"));
  Alcotest.(check int) "negative entry occupies the cache" 1 (Serve.cache_length s);
  (* satellite contract: cached negatives carry an explicit 0.0 score *)
  Alcotest.(check (float 0.0))
    "negative answer confidence is exactly 0.0" 0.0
    (Serve.geolocate_conf s "nosuch.hostname.invalid").Serve.confidence

let test_warm_cache_hits () =
  Obs.reset ();
  let _, model = Lazy.force fixture in
  let s = Serve.create model in
  ignore (Serve.apply_batch ~jobs:1 s batch);
  let hits_cold, misses_cold, _, _ = serve_counters () in
  (* the batch holds 6 distinct normalized keys: 4 known + 2 unknown;
     duplicate spellings of lhr1 are probed once *)
  Alcotest.(check int) "cold misses = distinct keys" 6 misses_cold;
  Alcotest.(check int) "cold hits" 0 hits_cold;
  ignore (Serve.apply_batch ~jobs:1 s batch);
  let hits_warm, misses_warm, _, _ = serve_counters () in
  Alcotest.(check int) "warm probes all hit" 6 (hits_warm - hits_cold);
  Alcotest.(check int) "no new misses when warm" misses_cold misses_warm

(* a served answer matches in-process on BOTH fields: the city and the
   (byte-identical) confidence score *)
let check_matches_inproc p h (answer : Serve.answer) =
  let city, confidence = Pipeline.geolocate_conf p h in
  Alcotest.(check bool) h true
    (answer.Serve.city = city && answer.Serve.confidence = confidence)

let test_batch_order_and_duplicates () =
  let p, model = Lazy.force fixture in
  let s = Serve.create model in
  let r = Serve.apply_batch ~jobs:1 s batch in
  Alcotest.(check (list string)) "input order preserved" batch (List.map fst r);
  List.iter (fun (h, answer) -> check_matches_inproc p h answer) r

let test_jobs_determinism () =
  let _, model = Lazy.force fixture in
  let run jobs =
    Obs.reset ();
    let s = Serve.create model in
    let cold = Serve.apply_batch ~jobs s batch in
    let warm = Serve.apply_batch ~jobs s batch in
    (cold, warm, serve_counters ())
  in
  let cold1, warm1, counters1 = run 1 in
  let cold4, warm4, counters4 = run 4 in
  Alcotest.(check bool) "cold results identical" true (cold1 = cold4);
  Alcotest.(check bool) "warm results identical" true (warm1 = warm4);
  let pp (h, m, e, a) = Printf.sprintf "hits=%d misses=%d evict=%d applied=%d" h m e a in
  Alcotest.(check string) "serve.* counters identical" (pp counters1) (pp counters4)

let test_tiny_cache_still_correct () =
  (* capacity 2 over the 8-hostname batch: constant eviction churn must
     never change answers, only counters *)
  let p, model = Lazy.force fixture in
  let s = Serve.create ~cache_capacity:2 ~cache_shards:1 model in
  for _ = 1 to 3 do
    List.iter
      (fun (h, answer) -> check_matches_inproc p h answer)
      (Serve.apply_batch ~jobs:2 s batch)
  done;
  Alcotest.(check bool) "cache stayed bounded" true (Serve.cache_length s <= 2)

let test_traced_fanout_nests_under_batch () =
  (* 300 distinct uncached names are more than one 64-name chunk, so at
     jobs=4 the misses are applied in pool jobs on other domains. Every
     [apply] span still nests under the batch's span, and the canonical
     forest is the one jobs=1 gives. *)
  let _, model = Lazy.force fixture in
  let sites = [| "lhr"; "fra"; "sea"; "ord" |] in
  let names =
    List.init 300 (fun i ->
        Printf.sprintf "ae%d.cr%d.%s%d.example.net" i (i mod 7) sites.(i mod 4) (1 + (i mod 3)))
  in
  let run jobs =
    let s = Serve.create model in
    Trace.set_enabled false;
    Trace.configure ();
    Trace.set_enabled true;
    let spans =
      Fun.protect
        ~finally:(fun () -> Trace.set_enabled false)
        (fun () ->
          ignore (Serve.apply_batch ~jobs s names);
          Trace.spans ())
    in
    let named n = List.filter (fun (sp : Trace.span) -> sp.Trace.name = n) spans in
    let batch =
      match named "serve.batch" with
      | [ b ] -> b
      | l -> Alcotest.failf "jobs=%d: %d serve.batch spans" jobs (List.length l)
    in
    let applies = named "apply" in
    Alcotest.(check int) (Printf.sprintf "jobs=%d: one apply span per name" jobs) 300
      (List.length applies);
    List.iter
      (fun (sp : Trace.span) ->
        Alcotest.(check (option int))
          (Printf.sprintf "jobs=%d: apply under serve.batch" jobs)
          (Some batch.Trace.id) sp.Trace.parent)
      applies;
    Alcotest.(check bool)
      (Printf.sprintf "jobs=%d: fanned out iff jobs > 1" jobs)
      (jobs > 1)
      (named "pool.batch" <> []);
    Alcotest.(check int) "no drops" 0 (Trace.dropped ());
    Trace.canonical spans
  in
  let c1 = run 1 in
  let c4 = run 4 in
  Trace.configure ();
  Alcotest.(check bool) "jobs=1 and jobs=4 canonical forests equal" true (c1 = c4)

let suites =
  [
    ( "serve-lru",
      [
        tc "capacity and eviction" test_capacity_eviction;
        tc "eviction follows recency order" test_eviction_is_lru_order;
        tc "overwrite updates in place" test_update_in_place;
        tc "negative values are hits" test_negative_values;
        tc "eviction counter" test_eviction_counter;
        tc "shard assignment is deterministic" test_shard_determinism;
        tc "capacity is a total budget" test_sharded_capacity;
        tc "clear" test_clear;
      ] );
    ( "serve",
      [
        tc "served = in-process geolocate" test_matches_pipeline;
        tc "negative entries are cached" test_negative_entry_cached;
        tc "warm cache hits" test_warm_cache_hits;
        tc "batch keeps order, dedupes work" test_batch_order_and_duplicates;
        tc "jobs=1 and jobs=4 identical" test_jobs_determinism;
        tc "tiny cache never changes answers" test_tiny_cache_still_correct;
        tc "traced fan-out nests under the batch" test_traced_fanout_nests_under_batch;
      ] );
  ]
