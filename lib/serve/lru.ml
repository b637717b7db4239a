module Obs = Hoiho_obs.Obs

let c_evictions = Obs.counter "serve.cache_evictions"

(* intrusive doubly-linked recency list; head = most recent *)
type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

type 'v shard = {
  lock : Mutex.t;
  tbl : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  cap : int;
}

type 'v t = { shard_arr : 'v shard array }

let create ?(shards = 8) ~capacity () =
  let shards = max 1 shards in
  let capacity = max 1 capacity in
  let per_shard = max 1 ((capacity + shards - 1) / shards) in
  {
    shard_arr =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create 64;
            head = None;
            tail = None;
            cap = per_shard;
          });
  }

let shards t = Array.length t.shard_arr

(* FNV-1a, 64-bit: deterministic in the key bytes alone, so shard
   placement never depends on process or domain state *)
let fnv1a key =
  let h = ref 0x4bf29ce484222325 (* FNV offset basis, truncated to 63 bits *) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    key;
  !h land max_int

let shard_of t key = fnv1a key mod Array.length t.shard_arr

let unlink s node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> s.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> s.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front s node =
  node.next <- s.head;
  (match s.head with Some h -> h.prev <- Some node | None -> s.tail <- Some node);
  s.head <- Some node

let with_lock s f =
  Mutex.lock s.lock;
  match f () with
  | v ->
      Mutex.unlock s.lock;
      v
  | exception e ->
      Mutex.unlock s.lock;
      raise e

let find t key =
  let s = t.shard_arr.(shard_of t key) in
  with_lock s (fun () ->
      match Hashtbl.find_opt s.tbl key with
      | None -> None
      | Some node ->
          unlink s node;
          push_front s node;
          Some node.value)

(* read-only probe: no promotion, no eviction, no counters — safe for
   observers (access logging) that must not perturb the deterministic
   recency order [find]/[add] callers rely on *)
let mem t key =
  let s = t.shard_arr.(shard_of t key) in
  with_lock s (fun () -> Hashtbl.mem s.tbl key)

let add t key value =
  let s = t.shard_arr.(shard_of t key) in
  with_lock s (fun () ->
      (match Hashtbl.find_opt s.tbl key with
      | Some node ->
          node.value <- value;
          unlink s node;
          push_front s node
      | None ->
          let node = { key; value; prev = None; next = None } in
          Hashtbl.replace s.tbl key node;
          push_front s node);
      if Hashtbl.length s.tbl > s.cap then
        match s.tail with
        | Some lru ->
            unlink s lru;
            Hashtbl.remove s.tbl lru.key;
            Obs.incr c_evictions
        | None -> ())

let remove_matching t pred =
  Array.fold_left
    (fun acc s ->
      acc
      + with_lock s (fun () ->
            (* collect first: unlinking while Hashtbl.iter walks the
               table would mutate under the iterator *)
            let doomed =
              Hashtbl.fold
                (fun key node acc -> if pred key then node :: acc else acc)
                s.tbl []
            in
            List.iter
              (fun node ->
                unlink s node;
                Hashtbl.remove s.tbl node.key)
              doomed;
            List.length doomed))
    0 t.shard_arr

let length t =
  Array.fold_left
    (fun acc s -> acc + with_lock s (fun () -> Hashtbl.length s.tbl))
    0 t.shard_arr

let clear t =
  Array.iter
    (fun s ->
      with_lock s (fun () ->
          Hashtbl.reset s.tbl;
          s.head <- None;
          s.tail <- None))
    t.shard_arr
