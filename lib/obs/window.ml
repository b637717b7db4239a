(* A sample lands in epoch [floor (now_ms / bucket_ms)] whichever
   domain records it, so merged reads are a pure function of the
   recorded (value, now_ms) multiset: the replay tests pin jobs=1 =
   jobs=4. *)

type t = {
  bucket_ms : float;
  lock : Mutex.t;
  epochs : int array;  (* which epoch each slot currently holds *)
  slots : Histo.t array;
  merged : Histo.t;  (* scratch for reads, rebuilt under the lock *)
}

let create ~bucket_ms ~nbuckets () =
  if not (bucket_ms > 0.0) then invalid_arg "Window.create: bucket_ms <= 0";
  if nbuckets < 1 then invalid_arg "Window.create: nbuckets < 1";
  {
    bucket_ms;
    lock = Mutex.create ();
    epochs = Array.make nbuckets min_int;
    slots = Array.init nbuckets (fun _ -> Histo.create ());
    merged = Histo.create ();
  }

let nbuckets t = Array.length t.slots
let span_ms t = t.bucket_ms *. float_of_int (nbuckets t)
let bucket_ms t = t.bucket_ms
let epoch_of t now_ms = int_of_float (Float.floor (now_ms /. t.bucket_ms))

let record t ~now_ms v =
  let epoch = epoch_of t now_ms in
  let nb = nbuckets t in
  let i = ((epoch mod nb) + nb) mod nb in
  Mutex.protect t.lock (fun () ->
      if t.epochs.(i) <> epoch then begin
        (* lazy rotation: the slot last held a different epoch's
           samples — drop them, this slot now belongs to [epoch] *)
        t.epochs.(i) <- epoch;
        Histo.clear t.slots.(i)
      end;
      Histo.record t.slots.(i) v)

(* [f] of every slot whose epoch is within [cur - nbuckets + 1, cur] *)
let read t ~now_ms f =
  let cur = epoch_of t now_ms in
  Mutex.protect t.lock (fun () ->
      Histo.clear t.merged;
      Array.iteri
        (fun i e ->
          if e > cur - nbuckets t && e <= cur then
            Histo.merge_into ~into:t.merged t.slots.(i))
        t.epochs;
      f t.merged)

let stats t ~now_ms = read t ~now_ms Histo.stats
let deciles t ~now_ms = read t ~now_ms Histo.deciles
