module Obs = Hoiho_obs.Obs

let c_batches = Obs.counter "net.batches"
let c_batched = Obs.counter "net.batch_hostnames"
let c_shed = Obs.counter "net.shed"
let g_fill = Obs.gauge "net.batch_fill"

type 'a ticket = {
  keys : string list;
  n : int;
  mutable result : 'a list option;
  mutable failed : bool;
  tm : Mutex.t;
  tcv : Condition.t;
}

type 'a t = {
  apply : string list -> 'a list;
  max_batch : int;
  max_wait_ms : float;
  max_pending : int;
  more_hint : unit -> int;
  q : 'a ticket Queue.t;
  mutable pending : int;
  mutable stopped : bool;
  qm : Mutex.t;
  qcv : Condition.t;  (* signalled on enqueue and on stop *)
  mutable worker : unit Domain.t option;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let fulfill ticket result =
  Mutex.lock ticket.tm;
  (match result with
  | Some answers -> ticket.result <- Some answers
  | None -> ticket.failed <- true);
  Condition.broadcast ticket.tcv;
  Mutex.unlock ticket.tm

(* run one collected batch: a single [apply] over the concatenation,
   answers split back per ticket in order *)
let run_batch t tickets =
  let tickets = List.rev tickets in
  let all_keys = List.concat_map (fun tk -> tk.keys) tickets in
  let total = List.length all_keys in
  Obs.incr c_batches;
  Obs.add c_batched total;
  Obs.observe_gauge g_fill total;
  match t.apply all_keys with
  | answers when List.length answers = total ->
      let rec hand answers = function
        | [] -> ()
        | tk :: rest ->
            let rec take k acc l =
              if k = 0 then (List.rev acc, l)
              else
                match l with
                | [] -> (List.rev acc, [])
                | x :: tl -> take (k - 1) (x :: acc) tl
            in
            let mine, remaining = take tk.n [] answers in
            fulfill tk (Some mine);
            hand remaining rest
      in
      hand answers tickets
  | _ | (exception _) -> List.iter (fun tk -> fulfill tk None) tickets

let worker_loop t =
  let rec next () =
    let batch =
      locked t.qm (fun () ->
          while Queue.is_empty t.q && not t.stopped do
            Condition.wait t.qcv t.qm
          done;
          if Queue.is_empty t.q then None
          else begin
            (* collect greedily, then keep the window open only while
               the batch is not full, the window has time left, and
               the hint says more producers are in flight *)
            let t0 = Obs.now_ms () in
            let collected = ref [] in
            let count = ref 0 in
            let ntickets = ref 0 in
            let drain () =
              while (not (Queue.is_empty t.q)) && !count < t.max_batch do
                let tk = Queue.pop t.q in
                collected := tk :: !collected;
                count := !count + tk.n;
                incr ntickets;
                t.pending <- t.pending - tk.n
              done
            in
            drain ();
            let rec wait_more () =
              if
                !count < t.max_batch
                && (not t.stopped)
                && Obs.now_ms () -. t0 < t.max_wait_ms
                && t.more_hint () > !ntickets
              then begin
                (* short unlock so producers can enqueue; 100 µs keeps
                   the window granular without burning the core *)
                Mutex.unlock t.qm;
                Unix.sleepf 0.0001;
                Mutex.lock t.qm;
                drain ();
                wait_more ()
              end
            in
            wait_more ();
            Some !collected
          end)
    in
    match batch with
    | Some tickets ->
        run_batch t tickets;
        next ()
    | None -> if not t.stopped then next ()
  in
  next ()

let create ?(max_batch = 64) ?(max_wait_ms = 1.0) ?(max_pending = 1024)
    ?(more_hint = fun () -> 0) ~apply () =
  let t =
    {
      apply;
      max_batch = max 1 max_batch;
      max_wait_ms = Float.max 0.0 max_wait_ms;
      max_pending = max 1 max_pending;
      more_hint;
      q = Queue.create ();
      pending = 0;
      stopped = false;
      qm = Mutex.create ();
      qcv = Condition.create ();
      worker = None;
    }
  in
  t.worker <- Some (Domain.spawn (fun () -> worker_loop t));
  t

let submit t keys =
  match keys with
  | [] -> Ok []
  | _ -> (
      let n = List.length keys in
      let ticket =
        {
          keys;
          n;
          result = None;
          failed = false;
          tm = Mutex.create ();
          tcv = Condition.create ();
        }
      in
      let admitted =
        locked t.qm (fun () ->
            if t.stopped then `Stopped
            else if t.pending + n > t.max_pending then begin
              Obs.add c_shed n;
              `Overloaded
            end
            else begin
              Queue.push ticket t.q;
              t.pending <- t.pending + n;
              Condition.signal t.qcv;
              `Admitted
            end)
      in
      match admitted with
      | `Stopped -> Error `Stopped
      | `Overloaded -> Error `Overloaded
      | `Admitted ->
          Mutex.lock ticket.tm;
          while ticket.result = None && not ticket.failed do
            Condition.wait ticket.tcv ticket.tm
          done;
          Mutex.unlock ticket.tm;
          (match ticket.result with
          | Some answers -> Ok answers
          | None -> Error `Failed))

let stop t =
  let joinable =
    locked t.qm (fun () ->
        if t.stopped then None
        else begin
          t.stopped <- true;
          Condition.broadcast t.qcv;
          let w = t.worker in
          t.worker <- None;
          w
        end)
  in
  match joinable with Some d -> Domain.join d | None -> ()
