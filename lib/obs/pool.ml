(* A fixed-size work pool over OCaml 5 domains; the fan-out contract and
   the helping rule are in pool.mli.

   Under one mutex the pool keeps its open fan-outs (those with chunks
   nobody has claimed yet), newest first. An idle worker claims the next
   chunk of the newest, so it helps finish work already started before
   it starts more. A waiting caller claims only what its fan-out waits
   for: its own chunks, then those of fan-outs opened inside them on
   any domain. Each fan-out records as parent the fan-out whose chunk
   was running on its domain when it opened, so "opened inside" is an
   ancestor walk. With none of that left, the caller sleeps until its
   last chunk finishes or a fan-out opens below it. *)

(* scheduler-level metrics: chunks opened, chunks a waiting caller ran
   itself, the most chunks left unclaimed at once, and how long waiting
   callers slept. Scheduling-dependent by nature — unlike the
   rx/ncsel/pipeline work counters these are NOT expected to be
   identical across HOIHO_JOBS settings. *)
let c_submitted = Obs.counter "pool.jobs_submitted"
let c_steals = Obs.counter "pool.helping_steals"
let g_depth = Obs.gauge "pool.queue_depth_hwm"
let c_job_exns = Obs.counter "pool.job_exceptions"
let h_sleep = Obs.histogram "pool.wait_sleep_ms"

(* one queued fan-out. [next], [pending] and [failed] are guarded by
   the pool mutex. *)
type fanout = {
  n : int;
  size : int;  (* items per chunk *)
  f : int -> unit;
  ctx : Trace.ctx;  (* the caller's span context, for every chunk *)
  chunks : int;
  parent : fanout option;
  mutable next : int;  (* the lowest unclaimed chunk *)
  mutable pending : int;  (* chunks not yet finished *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;  (* lowest failing index *)
  wake : Condition.t;  (* its caller: the last chunk finished, or a fan-out opened below *)
}

type t = {
  jobs : int;  (* total parallelism including the calling thread *)
  mutex : Mutex.t;
  opened : Condition.t;  (* idle workers: a fan-out opened *)
  mutable open_ : fanout list;  (* fan-outs with unclaimed chunks, newest first *)
  mutable unclaimed : int;  (* across open fan-outs, for pool.queue_depth_hwm *)
  spawned : bool Atomic.t;
}

(* the fan-out whose chunk this domain is running, if any *)
let current : fanout option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let default_jobs () =
  match Option.bind (Sys.getenv_opt "HOIHO_JOBS") (fun s -> int_of_string_opt (String.trim s)) with
  | Some j when j >= 1 -> j
  | _ -> max 1 (Domain.recommended_domain_count () - 1)

(* shared pools, one per size, for the process lifetime. [get] runs on
   every served batch, so a hit allocates nothing and spawns nothing. *)
let shared : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_mutex = Mutex.create ()

let get jobs =
  let jobs = max 1 jobs in
  Mutex.lock shared_mutex;
  let t =
    match Hashtbl.find shared jobs with
    | t -> t
    | exception Not_found ->
        let t =
          {
            jobs;
            mutex = Mutex.create ();
            opened = Condition.create ();
            open_ = [];
            unclaimed = 0;
            spawned = Atomic.make false;
          }
        in
        Hashtbl.replace shared jobs t;
        t
  in
  Mutex.unlock shared_mutex;
  t

(* a one-lane pool, or a single chunk: a plain ascending loop on the
   caller. It allocates nothing unless an item raises; the first
   failure in index order is the lowest. *)
let inline n f =
  let failed = ref None in
  for i = 0 to n - 1 do
    try f i
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Obs.incr c_job_exns;
      if Option.is_none !failed then failed := Some (e, bt)
  done;
  match !failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let note_failure t fo i e bt =
  Obs.incr c_job_exns;
  Mutex.lock t.mutex;
  (match fo.failed with
  | Some (j, _, _) when j < i -> ()
  | _ -> fo.failed <- Some (i, e, bt));
  Mutex.unlock t.mutex

(* [fo] itself, or opened inside one of its chunks at any depth *)
let rec within fo g = g == fo || match g.parent with Some p -> within fo p | None -> false

(* Claims the lowest unclaimed chunk of [fo] and runs it. Called and
   returns with the mutex held; the chunk runs without it. A chunk
   captures every exception of its items, so a worker never unwinds
   and serves the pool for the life of the process. *)
let run_next t fo =
  let k = fo.next in
  fo.next <- k + 1;
  t.unclaimed <- t.unclaimed - 1;
  if fo.next = fo.chunks then t.open_ <- List.filter (fun g -> g != fo) t.open_;
  Mutex.unlock t.mutex;
  let outer = Domain.DLS.get current in
  Domain.DLS.set current (Some fo);
  Trace.with_ctx fo.ctx (fun () ->
      for i = k * fo.size to min fo.n ((k + 1) * fo.size) - 1 do
        try fo.f i with e -> note_failure t fo i e (Printexc.get_raw_backtrace ())
      done);
  Domain.DLS.set current outer;
  Mutex.lock t.mutex;
  fo.pending <- fo.pending - 1;
  if fo.pending = 0 then Condition.signal fo.wake

let worker t =
  Mutex.lock t.mutex;
  while true do
    match t.open_ with
    | fo :: _ -> run_next t fo
    | [] -> Condition.wait t.opened t.mutex
  done

let queued t ~size n f =
  let chunks = (n + size - 1) / size in
  (* every chunk runs under the caller's span context, so spans it
     opens nest under the fan-out's span on any domain *)
  let fo =
    {
      n;
      size;
      f;
      ctx = Trace.capture ();
      chunks;
      parent = Domain.DLS.get current;
      next = 0;
      pending = chunks;
      failed = None;
      wake = Condition.create ();
    }
  in
  if (not (Atomic.get t.spawned)) && Atomic.compare_and_set t.spawned false true then
    for _ = 2 to t.jobs do
      ignore (Domain.spawn (fun () -> worker t))
    done;
  Mutex.lock t.mutex;
  t.open_ <- fo :: t.open_;
  t.unclaimed <- t.unclaimed + chunks;
  Obs.add c_submitted chunks;
  Obs.observe_gauge g_depth t.unclaimed;
  Condition.broadcast t.opened;
  (* these chunks are work every ancestor's caller waits for *)
  let rec wake_ancestors = function
    | Some p ->
        Condition.signal p.wake;
        wake_ancestors p.parent
    | None -> ()
  in
  wake_ancestors fo.parent;
  Mutex.unlock t.mutex;
  (* the wait span is scheduling-dependent by nature (it exists only
     for a queued fan-out, and its duration reflects contention), so it
     carries the "sched" category and stays out of the canonical span
     forest (DESIGN.md §10) *)
  Trace.with_span ~cat:"sched" "pool.batch" ~attrs:[ ("chunks", string_of_int chunks) ]
  @@ fun () ->
  (* the helping rule: run this fan-out's own chunks, then those of
     fan-outs opened inside them; sleep only when none is left *)
  let slept = ref 0.0 in
  Mutex.lock t.mutex;
  while fo.pending > 0 do
    let waited_for = if fo.next < fo.chunks then Some fo else List.find_opt (within fo) t.open_ in
    match waited_for with
    | Some g ->
        Obs.incr c_steals;
        run_next t g
    | None ->
        let t0 = Obs.now_ms () in
        Condition.wait fo.wake t.mutex;
        slept := !slept +. (Obs.now_ms () -. t0)
  done;
  let failed = fo.failed in
  Mutex.unlock t.mutex;
  if !slept > 0.0 then Obs.observe h_sleep !slept;
  match failed with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_for t ?chunk n f =
  let size =
    match chunk with
    | Some c -> max 1 c
    | None -> max 1 ((n + (t.jobs * 4) - 1) / (t.jobs * 4))
  in
  if t.jobs <= 1 || size >= n then inline n f else queued t ~size n f

let parallel_map t ?chunk f xs =
  let src = Array.of_list xs in
  let out = Array.make (Array.length src) None in
  parallel_for t ?chunk (Array.length src) (fun i -> out.(i) <- Some (f src.(i)));
  List.init (Array.length src) (fun i -> Option.get out.(i))
