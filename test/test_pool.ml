module Pool = Hoiho_obs.Pool
module Obs = Hoiho_obs.Obs

let tc = Helpers.tc

let test_map_preserves_order () =
  let pool = Pool.get 4 in
  let input = List.init 1000 Fun.id in
  Alcotest.(check (list int))
    "squares in input order"
    (List.map (fun x -> x * x) input)
    (Pool.parallel_map pool (fun x -> x * x) input)

let test_map_matches_sequential () =
  let input = List.init 257 (fun i -> Printf.sprintf "host%d.example.net" i) in
  let f s = String.uppercase_ascii s ^ "!" in
  let seq = Pool.parallel_map (Pool.get 1) f input in
  let par = Pool.parallel_map (Pool.get 4) f input in
  Alcotest.(check (list string)) "jobs=1 and jobs=4 agree" seq par

let test_empty_and_singleton () =
  let pool = Pool.get 4 in
  Alcotest.(check (list int)) "empty" [] (Pool.parallel_map pool Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Pool.parallel_map pool (fun x -> x + 1) [ 6 ])

let test_exception_propagates () =
  let pool = Pool.get 4 in
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Pool.parallel_map pool
           (fun x -> if x = 57 then failwith "boom" else x)
           (List.init 200 Fun.id)));
  (* the pool survives a failed batch *)
  Alcotest.(check (list int)) "pool usable after failure" [ 2; 3 ]
    (Pool.parallel_map pool (fun x -> x + 1) [ 1; 2 ])

let test_pool_reuse () =
  let pool = Pool.get 4 in
  for round = 1 to 5 do
    let input = List.init 100 (fun i -> (round * 1000) + i) in
    Alcotest.(check (list int))
      (Printf.sprintf "batch %d" round)
      (List.map (fun x -> x * 2) input)
      (Pool.parallel_map pool (fun x -> x * 2) input)
  done

let test_shared_pool_is_shared () =
  Alcotest.(check bool) "Pool.get returns the same pool per size" true
    (Pool.get 2 == Pool.get 2);
  Alcotest.(check bool) "sizes below 1 are the one-lane pool" true
    (Pool.get 0 == Pool.get 1)

let test_jobs1_fallback () =
  (* jobs=1 must behave as a plain sequential loop, including
     left-to-right evaluation order *)
  let pool = Pool.get 1 in
  let order = ref [] in
  let out =
    Pool.parallel_map pool
      (fun x ->
        order := x :: !order;
        x * 3)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "results" [ 3; 6; 9; 12 ] out;
  Alcotest.(check (list int)) "applied left to right" [ 1; 2; 3; 4 ]
    (List.rev !order);
  let seen = ref [] in
  Pool.parallel_for pool 3 (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "for in order" [ 0; 1; 2 ] (List.rev !seen)

let test_nested_map () =
  (* a task submitting to the pool it runs on must not deadlock: the
     waiting caller runs its own unclaimed chunks *)
  let pool = Pool.get 3 in
  let out =
    Pool.parallel_map pool
      (fun i -> Pool.parallel_map pool (fun j -> (i * 10) + j) [ 0; 1; 2 ])
      (List.init 20 Fun.id)
  in
  let expected =
    List.init 20 (fun i -> List.map (fun j -> (i * 10) + j) [ 0; 1; 2 ])
  in
  Alcotest.(check (list (list int))) "nested results" expected out

let test_default_jobs_positive () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

let test_default_jobs_fallback () =
  (* a malformed or non-positive HOIHO_JOBS falls back to the default,
     as documented, not to 1. OCaml cannot unset a variable, so an
     unset one is restored as "", which reads as unset. *)
  let default = max 1 (Domain.recommended_domain_count () - 1) in
  let saved = Sys.getenv_opt "HOIHO_JOBS" in
  Fun.protect ~finally:(fun () -> Unix.putenv "HOIHO_JOBS" (Option.value saved ~default:""))
  @@ fun () ->
  List.iter
    (fun v ->
      Unix.putenv "HOIHO_JOBS" v;
      Alcotest.(check int) (Printf.sprintf "HOIHO_JOBS=%S" v) default (Pool.default_jobs ()))
    [ "abc"; "0"; "-3" ];
  Unix.putenv "HOIHO_JOBS" " 3 ";
  Alcotest.(check int) "a positive value is taken" 3 (Pool.default_jobs ())

let chunk_name = function Some c -> string_of_int c | None -> "auto"

let test_parallel_for_covers () =
  (* every index runs exactly once, at any chunking *)
  let pool = Pool.get 4 in
  List.iter
    (fun chunk ->
      let n = 257 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for pool ?chunk n (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i a ->
          Alcotest.(check int)
            (Printf.sprintf "index %d ran once (chunk=%s)" i (chunk_name chunk))
            1 (Atomic.get a))
        hits)
    [ None; Some 1; Some 7; Some 1000 ]

let test_parallel_for_jobs1_ascending () =
  (* the sequential fallback is a plain ascending for loop *)
  let pool = Pool.get 1 in
  let seen = ref [] in
  Pool.parallel_for pool 10 (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "ascending" (List.init 10 Fun.id) (List.rev !seen)

let test_chunk_never_changes_results () =
  (* the documented contract: [chunk] is a scheduling knob only *)
  let pool = Pool.get 4 in
  let input = List.init 300 Fun.id in
  let expect = List.map (fun x -> x * x) input in
  List.iter
    (fun chunk ->
      Alcotest.(check (list int))
        "map result independent of chunk" expect
        (Pool.parallel_map pool ?chunk (fun x -> x * x) input))
    [ None; Some 1; Some 3; Some 512 ]

let test_every_index_runs_on_failure () =
  (* a raising item aborts neither its chunk nor the fan-out: every
     other index still runs exactly once *)
  List.iter
    (fun (jobs, chunk) ->
      let n = 100 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d chunk=%s re-raises" jobs (chunk_name chunk))
        (Failure "item 2")
        (fun () ->
          Pool.parallel_for (Pool.get jobs) ?chunk n (fun i ->
              Atomic.incr hits.(i);
              if i mod 10 = 2 then failwith (Printf.sprintf "item %d" i)));
      Array.iteri
        (fun i a ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d chunk=%s index %d ran once" jobs (chunk_name chunk) i)
            1 (Atomic.get a))
        hits)
    (List.concat_map (fun jobs -> List.map (fun c -> (jobs, c)) [ None; Some 1; Some 7 ]) [ 1; 4 ])

let test_lowest_failure_wins () =
  (* the reported failure is the lowest failing index, not the first to
     fail in time: on a multi-lane pool, index 3 holds its failure back
     until an item at index >= 40 has failed *)
  List.iter
    (fun jobs ->
      let late_failed = Atomic.make false in
      let f i =
        if i = 3 then begin
          let t0 = Unix.gettimeofday () in
          while jobs > 1 && (not (Atomic.get late_failed)) && Unix.gettimeofday () -. t0 < 10.0 do
            Domain.cpu_relax ()
          done;
          failwith "index 3"
        end;
        if i >= 40 then begin
          Atomic.set late_failed true;
          failwith (Printf.sprintf "index %d" i)
        end;
        i
      in
      Alcotest.check_raises (Printf.sprintf "jobs=%d" jobs) (Failure "index 3") (fun () ->
          ignore (Pool.parallel_map (Pool.get jobs) ~chunk:1 f (List.init 64 Fun.id)));
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: a later index failed too" jobs)
        true (Atomic.get late_failed))
    [ 1; 2; 4 ]

let test_one_chunk_runs_inline () =
  (* a fan-out that fits in one chunk queues nothing, even on a 4-lane
     pool: it runs on the caller's domain, in ascending order *)
  let pool = Pool.get 4 in
  let submitted () = Obs.count (Obs.counter "pool.jobs_submitted") in
  let before = submitted () in
  let caller = Domain.self () in
  let seen = ref [] in
  Pool.parallel_for pool ~chunk:16 16 (fun i -> seen := (i, Domain.self () = caller) :: !seen);
  Alcotest.(check (list (pair int bool)))
    "ascending, on the caller"
    (List.init 16 (fun i -> (i, true)))
    (List.rev !seen);
  Alcotest.(check (list int)) "single item, auto chunk" [ 8 ]
    (Pool.parallel_map pool (fun x -> x * 2) [ 4 ]);
  Alcotest.(check int) "nothing queued" before (submitted ())

let test_waiter_starts_no_unrelated_work () =
  (* a caller waiting on its inner fan-out must not start another outer
     item: pool jobs then nest on one domain no deeper than the code's
     two fan-out levels, however many outer items are queued. Every
     item raises a domain-local depth counter while it runs. *)
  let pool = Pool.get 4 in
  let depth = Domain.DLS.new_key (fun () -> ref 0) in
  let deepest = Atomic.make 0 in
  let rec raise_to d =
    let m = Atomic.get deepest in
    if d > m && not (Atomic.compare_and_set deepest m d) then raise_to d
  in
  let item body =
    let d = Domain.DLS.get depth in
    incr d;
    raise_to !d;
    Fun.protect ~finally:(fun () -> decr d) body
  in
  Pool.parallel_for pool ~chunk:1 200 (fun _ ->
      item (fun () -> Pool.parallel_for pool ~chunk:1 4 (fun _ -> item ignore)));
  let deepest = Atomic.get deepest in
  Alcotest.(check bool)
    (Printf.sprintf "deepest nesting on one domain %d <= 2" deepest)
    true (deepest <= 2)

let test_waiter_helps_nested () =
  (* item 1 opens a fan-out whose items each wait until two domains
     have entered it. If the worker took item 1, only the caller
     waiting on the outer fan-out is left to enter, and it must: that
     fan-out was opened inside a chunk it waits for. Item 0 returns
     once item 1 has started, so the domain running item 0 cannot take
     item 1 too. *)
  let pool = Pool.get 2 in
  let started = Atomic.make false in
  let entered = Atomic.make [] in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec enter me =
    let l = Atomic.get entered in
    if not (List.mem me l || Atomic.compare_and_set entered l (me :: l)) then enter me
  in
  Pool.parallel_for pool ~chunk:1 2 (fun i ->
      if i = 0 then
        while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done
      else begin
        Atomic.set started true;
        Pool.parallel_for pool ~chunk:1 8 (fun _ ->
            enter (Domain.self () :> int);
            while List.length (Atomic.get entered) < 2 && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done)
      end);
  Alcotest.(check int) "domains that entered the nested fan-out" 2
    (List.length (Atomic.get entered))

(* a random tree of fan-outs: each level at most 40 items, a random
   [chunk], items that open a fan-out below or raise *)
type tree = { chunk : int option; items : (bool * tree option) list }

let gen_tree =
  let open QCheck.Gen in
  let rec node depth =
    let item =
      pair (map (fun k -> k = 0) (int_bound 19))
        (if depth >= 3 then return None
         else frequency [ (4, return None); (1, map Option.some (node (depth + 1))) ])
    in
    map2 (fun chunk items -> { chunk; items }) (opt (int_range 1 12)) (list_size (int_bound 40) item)
  in
  node 1

let rec show_tree { chunk; items } =
  Printf.sprintf "{chunk=%s [%s]}" (chunk_name chunk)
    (String.concat "; "
       (List.map
          (fun (raises, below) ->
            (if raises then "!" else ".") ^ Option.fold ~none:"" ~some:show_tree below)
          items))

(* every item's path and what its subtree returned; an item raises
   after its subtree ran, so failures below propagate up *)
let rec run_tree pool path { chunk; items } =
  Pool.parallel_map pool ?chunk
    (fun (i, (raises, below)) ->
      let here = Printf.sprintf "%s/%d" path i in
      let sub = Option.fold ~none:[] ~some:(run_tree pool here) below in
      if raises then failwith here;
      here ^ "[" ^ String.concat "," sub ^ "]")
    (List.mapi (fun i it -> (i, it)) items)

let prop_random_nesting tree =
  let outcome jobs =
    match run_tree (Pool.get jobs) "" tree with v -> Ok v | exception Failure m -> Error m
  in
  let seq = outcome 1 in
  List.for_all (fun jobs -> outcome jobs = seq) [ 2; 4 ]

let qcheck_random_nesting =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"random fan-out trees at jobs 2 and 4 equal jobs 1"
       (QCheck.make ~print:show_tree gen_tree)
       prop_random_nesting)

let suites =
  [
    ( "util.pool",
      [
        tc "map preserves order" test_map_preserves_order;
        tc "jobs=1 equals jobs=4" test_map_matches_sequential;
        tc "empty and singleton" test_empty_and_singleton;
        tc "exception propagates" test_exception_propagates;
        tc "pool reuse across batches" test_pool_reuse;
        tc "shared pool" test_shared_pool_is_shared;
        tc "jobs=1 sequential fallback" test_jobs1_fallback;
        tc "nested map no deadlock" test_nested_map;
        tc "default jobs positive" test_default_jobs_positive;
        tc "malformed HOIHO_JOBS uses the default" test_default_jobs_fallback;
        tc "parallel_for covers every index" test_parallel_for_covers;
        tc "parallel_for jobs=1 ascending" test_parallel_for_jobs1_ascending;
        tc "chunk never changes results" test_chunk_never_changes_results;
        tc "every index runs when others raise" test_every_index_runs_on_failure;
        tc "lowest failing index is re-raised" test_lowest_failure_wins;
        tc "one chunk runs inline on the caller" test_one_chunk_runs_inline;
        tc "a waiter starts no unrelated work" test_waiter_starts_no_unrelated_work;
        tc "a waiter helps what it waits for" test_waiter_helps_nested;
        qcheck_random_nesting;
      ] );
  ]
