module Json = Hoiho_util.Json

type entry = {
  request_id : string;
  endpoint : string;
  status : int;
  latency_us : int;
  batch : int;
  cache_hit : bool;
  confidence : float option;
  shed : bool;
  degraded : bool;
}

(* fixed field order: the line is part of the observable surface tests
   pin byte-for-byte *)
let line_of_entry e =
  Json.to_string
    (Json.Obj
       [
         ("request_id", Json.String e.request_id);
         ("endpoint", Json.String e.endpoint);
         ("status", Json.Int e.status);
         ("latency_us", Json.Int e.latency_us);
         ("batch", Json.Int e.batch);
         ("cache_hit", Json.Bool e.cache_hit);
         ( "confidence",
           match e.confidence with Some c -> Json.Float c | None -> Json.Null );
         ("shed", Json.Bool e.shed);
         ("degraded", Json.Bool e.degraded);
       ])

type t = {
  lpath : string;
  max_bytes : int;
  lock : Mutex.t;
  mutable oc : out_channel option;
  mutable written : int;
}

let create ?(max_bytes = 16 * 1024 * 1024) path =
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc ->
      Ok
        {
          lpath = path;
          max_bytes = max 1024 max_bytes;
          lock = Mutex.create ();
          oc = Some oc;
          written = out_channel_length oc;
        }
  | exception Sys_error msg -> Error msg

(* under the writer lock: rename the full file to <path>.1 (replacing
   any previous rotation — the budget is the live file plus one
   predecessor) and start fresh *)
let rotate t oc =
  close_out_noerr oc;
  (try Sys.rename t.lpath (t.lpath ^ ".1") with Sys_error _ -> ());
  (match open_out_gen [ Open_append; Open_creat ] 0o644 t.lpath with
  | oc' ->
      t.oc <- Some oc';
      t.written <- 0
  | exception Sys_error _ -> t.oc <- None)

let log t entry =
  let line = line_of_entry entry ^ "\n" in
  Mutex.lock t.lock;
  (match t.oc with
  | None -> ()
  | Some oc ->
      if t.written > 0 && t.written + String.length line > t.max_bytes then
        rotate t oc;
      (match t.oc with
      | None -> ()
      | Some oc -> (
          (* a full disk or yanked file must never take serving down *)
          try
            output_string oc line;
            flush oc;
            t.written <- t.written + String.length line
          with Sys_error _ -> ())));
  Mutex.unlock t.lock

let close t =
  Mutex.lock t.lock;
  (match t.oc with
  | Some oc ->
      (try flush oc with Sys_error _ -> ());
      close_out_noerr oc;
      t.oc <- None
  | None -> ());
  Mutex.unlock t.lock
