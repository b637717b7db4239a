(* A fixed-size work pool over OCaml 5 domains; the fan-out contract is
   in pool.mli.

   Workers park on a condition variable and take chunk jobs from one
   queue guarded by a single mutex. A caller waiting on its fan-out
   runs queued jobs itself ("helping"), which makes a fan-out from
   inside a job deadlock-free: every blocked caller is a consumer, so
   a non-empty queue always has a thread able to run it. *)

(* scheduler-level metrics: chunk jobs queued, the deepest the queue
   got, and jobs a waiting caller ran itself. Scheduling-dependent by
   nature — unlike the rx/ncsel/pipeline work counters these are NOT
   expected to be identical across HOIHO_JOBS settings. *)
let c_submitted = Obs.counter "pool.jobs_submitted"
let c_steals = Obs.counter "pool.helping_steals"
let g_depth = Obs.gauge "pool.queue_depth_hwm"
let c_job_exns = Obs.counter "pool.job_exceptions"

type t = {
  jobs : int;  (* total parallelism including the calling thread *)
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  spawned : bool Atomic.t;
}

let default_jobs () =
  match Option.bind (Sys.getenv_opt "HOIHO_JOBS") (fun s -> int_of_string_opt (String.trim s)) with
  | Some j when j >= 1 -> j
  | _ -> max 1 (Domain.recommended_domain_count () - 1)

(* a job captures every exception of its items, so a worker never
   unwinds and serves the pool for the life of the process *)
let rec worker t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue do
    Condition.wait t.nonempty t.mutex
  done;
  let job = Queue.pop t.queue in
  Mutex.unlock t.mutex;
  job ();
  worker t

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
            nonempty = Condition.create ();
            queue = Queue.create ();
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

(* a fan-out on the queue: chunks not yet finished, and the lowest
   failing index with its exception, both under the pool mutex *)
type fanout = {
  mutable pending : int;
  finished : Condition.t;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
}

let note_failure t fo i e bt =
  Obs.incr c_job_exns;
  Mutex.lock t.mutex;
  (match fo.failed with
  | Some (j, _, _) when j < i -> ()
  | _ -> fo.failed <- Some (i, e, bt));
  Mutex.unlock t.mutex

let queued t ~size n f =
  let chunks = (n + size - 1) / size in
  let fo = { pending = chunks; finished = Condition.create (); failed = None } in
  (* every job runs under the caller's span context, so spans it opens
     nest under the fan-out's span on any domain *)
  let ctx = Trace.capture () in
  let job lo () =
    Trace.with_ctx ctx (fun () ->
        for i = lo to min n (lo + size) - 1 do
          try f i with e -> note_failure t fo i e (Printexc.get_raw_backtrace ())
        done);
    Mutex.lock t.mutex;
    fo.pending <- fo.pending - 1;
    if fo.pending = 0 then Condition.broadcast fo.finished;
    Mutex.unlock t.mutex
  in
  if (not (Atomic.get t.spawned)) && Atomic.compare_and_set t.spawned false true then
    for _ = 2 to t.jobs do
      ignore (Domain.spawn (fun () -> worker t))
    done;
  Mutex.lock t.mutex;
  for k = 0 to chunks - 1 do
    Queue.push (job (k * size)) t.queue
  done;
  Obs.add c_submitted chunks;
  Obs.observe_gauge g_depth (Queue.length t.queue);
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  (* the wait span is scheduling-dependent by nature (it exists only
     for a queued fan-out, and its duration reflects contention), so it
     carries the "sched" category and stays out of the canonical span
     forest (DESIGN.md §10) *)
  Trace.with_span ~cat:"sched" "pool.batch" ~attrs:[ ("chunks", string_of_int chunks) ]
  @@ fun () ->
  (* help drain the queue until this fan-out completes; sleep only
     when there is nothing at all to run. The queue is shared, so a
     waiting caller may run other fan-outs' jobs — every waiter is a
     worker. *)
  Mutex.lock t.mutex;
  while fo.pending > 0 do
    match Queue.take_opt t.queue with
    | Some job ->
        Mutex.unlock t.mutex;
        Obs.incr c_steals;
        job ();
        Mutex.lock t.mutex
    | None -> Condition.wait fo.finished t.mutex
  done;
  let failed = fo.failed in
  Mutex.unlock t.mutex;
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
