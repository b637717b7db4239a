module Learned_io = Hoiho.Learned_io
module Apply = Hoiho.Apply
module Pool = Hoiho_obs.Pool
module Obs = Hoiho_obs.Obs
module Trace = Hoiho_obs.Trace

let c_hits = Obs.counter "serve.cache_hits"
let c_misses = Obs.counter "serve.cache_misses"
let c_applied = Obs.counter "serve.applied"
let c_invalidated = Obs.counter "serve.cache_invalidated"
let h_batch = Obs.histogram "serve.batch_ms"

type answer = Apply.answer = {
  city : Hoiho_geodb.City.t option;
  confidence : float;
}

type t = {
  model : Learned_io.t;
  db : Hoiho_geodb.Db.t;
  index : Apply.index;
  cache : answer Lru.t;
  retired : bool Atomic.t;  (* set once [rebuild] hands [cache] on *)
}

(* the one constructor: resolve the dictionary and index the suffixes
   once per model. Duplicate suffixes are a corrupt model that
   Learned_io.decode rejects; a hand-assembled one is refused here. *)
let with_cache cache model =
  match Apply.index model.Learned_io.suffixes with
  | Ok index ->
      { model; db = Learned_io.db model; index; cache; retired = Atomic.make false }
  | Error (_, suffix) ->
      invalid_arg
        (Printf.sprintf "Serve.create: duplicate suffix model %S" suffix)

let create ?(cache_capacity = 65536) ?(cache_shards = 8) model =
  with_cache (Lru.create ~shards:cache_shards ~capacity:cache_capacity ()) model

(* Incremental swap: reuse the warm cache, evicting only the entries an
   incremental relearn could have changed. Cached answers — negative
   ones included — are keyed by normalized hostname and determined by
   that hostname's registered suffix's model, so an entry is stale
   exactly when its suffix is dirty. Keys with no registered suffix
   always answer [None] under every model and survive too. The
   bugfix this encodes: a full-cache carry-over used to keep serving
   cached negatives for hostnames that the new model *can* now answer
   (unknown in epoch 1, named in epoch 2). [t] is retired first, so a
   batch still running on it takes back what it adds (see
   [apply_batch]) and no answer of the old model outlives the
   eviction. *)
let rebuild ?(dirty = []) t model =
  Atomic.set t.retired true;
  if dirty <> [] then begin
    let dirty_tbl = Hashtbl.create (List.length dirty) in
    List.iter (fun s -> Hashtbl.replace dirty_tbl s ()) dirty;
    let stale key =
      match Hoiho_psl.Psl.registered_suffix key with
      | Some s -> Hashtbl.mem dirty_tbl s
      | None -> false
    in
    Obs.add c_invalidated (Lru.remove_matching t.cache stale)
  end;
  with_cache t.cache model

let model t = t.model

let geolocate_uncached_conf t hostname =
  Obs.incr c_applied;
  Apply.apply t.db t.index (Hoiho_util.Strutil.normalize_hostname hostname)

let explain t hostname =
  let answer, spans, _ = Trace.collect (fun () -> geolocate_uncached_conf t hostname) in
  (answer, Trace.render_text spans)

let geolocate_conf t hostname =
  Obs.incr c_applied;
  let key = Hoiho_util.Strutil.normalize_hostname hostname in
  match Lru.find t.cache key with
  | Some answer ->
      Obs.incr c_hits;
      answer
  | None ->
      Obs.incr c_misses;
      let answer = Apply.apply t.db t.index key in
      Lru.add t.cache key answer;
      answer

let apply_batch ?jobs ?(normalized = false) t hostnames =
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  (* [normalized] callers (the network daemon) have already run
     Strutil.normalize_hostname at their input boundary — exactly once
     per hostname, per the serving contract *)
  let keys =
    if normalized then hostnames
    else List.map Hoiho_util.Strutil.normalize_hostname hostnames
  in
  Trace.with_span "serve.batch"
    ~attrs:[ ("hostnames", string_of_int (List.length keys)) ]
  @@ fun () ->
  Obs.time h_batch
  @@ fun () ->
  Obs.add c_applied (List.length keys);
  (* one sequential cache probe per distinct key, in first-appearance
     order: hit/miss counts and eviction order are then functions of the
     batch contents alone, not of scheduling *)
  let answers : (string, answer) Hashtbl.t =
    Hashtbl.create (List.length keys)
  in
  let misses = ref [] in
  List.iter
    (fun key ->
      if not (Hashtbl.mem answers key) then
        match Lru.find t.cache key with
        | Some answer ->
            Obs.incr c_hits;
            Hashtbl.replace answers key answer
        | None ->
            Obs.incr c_misses;
            Hashtbl.replace answers key Apply.no_answer;
            misses := key :: !misses)
    keys;
  let misses = Array.of_list (List.rev !misses) in
  let n_misses = Array.length misses in
  (* the per-miss computation is pure (~1µs each after the exec-path
     allocation work); fanning each miss out as its own pool job costs
     more in queue traffic than the work saves, which is how the cold
     path used to run SLOWER in parallel. Misses go out in chunks of at
     least [min_chunk], so the pool only ever queues jobs big enough to
     pay for themselves, and a batch of at most [min_chunk] misses is
     one chunk, which the pool runs inline. *)
  let min_chunk = 64 in
  let computed = Array.make n_misses None in
  Pool.parallel_for (Pool.get jobs)
    ~chunk:(max min_chunk (n_misses / (jobs * 4)))
    n_misses
    (fun i -> computed.(i) <- Some (Apply.apply t.db t.index misses.(i)));
  Trace.add_attr "misses" (string_of_int n_misses);
  (* inserts stay sequential and in first-appearance order, so cache
     contents and eviction order are jobs-invariant *)
  Array.iteri
    (fun i answer_opt ->
      let key = misses.(i) in
      let answer = Option.get answer_opt in
      Hashtbl.replace answers key answer;
      Lru.add t.cache key answer)
    computed;
  (* [rebuild] may have retired [t] while the misses were computed, and
     its eviction may have run before these inserts: take them back (a
     removed entry is only a miss). The retirement is set before the
     eviction and read after the inserts, so every insert is caught by
     one or the other. *)
  if n_misses > 0 && Atomic.get t.retired then begin
    let added = Hashtbl.create n_misses in
    Array.iter (fun key -> Hashtbl.replace added key ()) misses;
    ignore (Lru.remove_matching t.cache (Hashtbl.mem added))
  end;
  List.map2 (fun hostname key -> (hostname, Hashtbl.find answers key)) hostnames keys

let cache_length t = Lru.length t.cache
let cached t key = Lru.mem t.cache key
