module Json = Hoiho_util.Json

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  t_start_ns : int64;
  t_end_ns : int64;
  attrs : (string * string) list;
  domain : int;
}

(* the whole subsystem hides behind this one flag: every public entry
   point loads it first and falls through to the untraced path, so a
   disabled build pays one Atomic.get per call site *)
let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled v = Atomic.set enabled_flag v

let c_recorded = Obs.counter "trace.spans_recorded"
let c_dropped = Obs.counter "trace.spans_dropped"

(* --- bounded lock-sharded ring collector ---

   Completed spans land in one of [shards] rings, picked by the
   recording domain's id so concurrent workers rarely contend on the
   same lock. A full ring drops the incoming span (never overwrites):
   parents complete after their children, so drop-newest sheds whole
   subtrees from the top rather than punching holes in the middle. *)

type shard = {
  lock : Mutex.t;
  mutable buf : span option array;
  mutable len : int;
}

type collector = { shards : shard array }

let make_collector ~shards ~capacity =
  let shards = max 1 shards in
  let per = max 1 ((capacity + shards - 1) / shards) in
  {
    shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); buf = Array.make per None; len = 0 });
  }

let collector = ref (make_collector ~shards:8 ~capacity:65536)

let configure ?(shards = 8) ?(capacity = 65536) () =
  collector := make_collector ~shards ~capacity

let clear () =
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      Array.fill sh.buf 0 (Array.length sh.buf) None;
      sh.len <- 0;
      Mutex.unlock sh.lock)
    !collector.shards;
  Obs.set_counter c_recorded 0;
  Obs.set_counter c_dropped 0

let record sp =
  let c = !collector in
  let sh = c.shards.(sp.domain mod Array.length c.shards) in
  Mutex.lock sh.lock;
  if sh.len < Array.length sh.buf then begin
    sh.buf.(sh.len) <- Some sp;
    sh.len <- sh.len + 1;
    Mutex.unlock sh.lock;
    Obs.incr c_recorded
  end
  else begin
    Mutex.unlock sh.lock;
    Obs.incr c_dropped
  end

let dropped () = Obs.count c_dropped

let spans () =
  let acc = ref [] in
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      for i = sh.len - 1 downto 0 do
        match sh.buf.(i) with Some sp -> acc := sp :: !acc | None -> ()
      done;
      Mutex.unlock sh.lock)
    !collector.shards;
  List.sort (fun a b -> compare (a.t_start_ns, a.id) (b.t_start_ns, b.id)) !acc

(* --- live spans and the per-domain stack --- *)

type live = {
  lid : int;
  lparent : int option;
  lname : string;
  lcat : string;
  lstart : int64;
  mutable lattrs : (string * string) list;  (* reversed *)
}

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

let stack_key : live list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* ambient parent: the span context a pool job was submitted under,
   installed by [with_ctx] on whichever domain executes the job. It is
   consulted only when the domain's own stack is empty, so synchronous
   nesting always wins. *)
let ambient_key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let now_ns () = Monotonic_clock.now ()

type parent = Stack | Root | Span of int

let current () =
  if not (enabled ()) then None
  else
    match !(Domain.DLS.get stack_key) with
    | l :: _ -> Some l.lid
    | [] -> !(Domain.DLS.get ambient_key)

let fanout_parent () =
  match current () with Some id -> Span id | None -> Root

(* --- span-context propagation across pool fan-out --- *)

type ctx = int option

let capture () = current ()

let with_ctx ctx f =
  if not (enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let amb = Domain.DLS.get ambient_key in
    let saved_stack = !stack and saved_amb = !amb in
    (* mask the executing domain's own stack: a helping submitter runs
       other batches' jobs from inside its own live spans, and those
       jobs must nest under the span they were SUBMITTED from, not
       under whatever the executor happened to be doing *)
    stack := [];
    amb := ctx;
    Fun.protect
      ~finally:(fun () ->
        stack := saved_stack;
        amb := saved_amb)
      f
  end

let domain_id () = (Domain.self () :> int)

let with_span ?(cat = "work") ?(parent = Stack) ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent_id =
      match parent with
      | Stack -> (
          match !stack with
          | l :: _ -> Some l.lid
          | [] -> !(Domain.DLS.get ambient_key))
      | Root -> None
      | Span id -> Some id
    in
    let live =
      {
        lid = fresh_id ();
        lparent = parent_id;
        lname = name;
        lcat = cat;
        lstart = now_ns ();
        lattrs = List.rev attrs;
      }
    in
    stack := live :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with
        | l :: rest when l == live -> stack := rest
        | _ ->
            (* a callee escaped its span (e.g. an effect); drop down to
               self-repair rather than corrupt the stack *)
            stack := List.filter (fun l -> not (l == live)) !stack);
        record
          {
            id = live.lid;
            parent = live.lparent;
            name = live.lname;
            cat = live.lcat;
            t_start_ns = live.lstart;
            t_end_ns = now_ns ();
            attrs = List.rev live.lattrs;
            domain = domain_id ();
          })
      f
  end

let add_attr key value =
  if enabled () then
    match !(Domain.DLS.get stack_key) with
    | live :: _ -> live.lattrs <- (key, value) :: live.lattrs
    | [] -> ()

(* deterministic subject sampling for hot call sites: Hashtbl.hash is a
   pure function of the bytes, so the sampled set depends only on the
   inputs — never on domain scheduling *)
let sampled s = Hashtbl.hash s land 63 = 0

(* --- tree reconstruction --- *)

type tree = { node : span; children : tree list }

let forest ?(include_sched = false) (sps : span list) =
  let sps =
    if include_sched then sps else List.filter (fun s -> s.cat <> "sched") sps
  in
  let ids = Hashtbl.create (List.length sps * 2) in
  List.iter (fun s -> Hashtbl.replace ids s.id ()) sps;
  let children : (int, span list) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  (* [sps] arrives start-sorted; build child lists in reverse so each
     final list is again in start order *)
  List.iter
    (fun s ->
      match s.parent with
      | Some p when Hashtbl.mem ids p ->
          Hashtbl.replace children p (s :: Option.value (Hashtbl.find_opt children p) ~default:[])
      | _ -> roots := s :: !roots)
    (List.rev sps);
  let rec build s =
    {
      node = s;
      children =
        List.map build (Option.value (Hashtbl.find_opt children s.id) ~default:[]);
    }
  in
  List.map build !roots

(* --- canonical (timestamp-free, order-free) rendering --- *)

let canonical ?include_sched sps =
  let buf = Buffer.create 4096 in
  let rec render depth t =
    let b = Buffer.create 128 in
    Buffer.add_string b (String.make (2 * depth) ' ');
    Buffer.add_string b t.node.name;
    List.iter
      (fun (k, v) ->
        Buffer.add_string b " ";
        Buffer.add_string b k;
        Buffer.add_string b "=";
        Buffer.add_string b v)
      t.node.attrs;
    Buffer.add_char b '\n';
    let subtrees = List.sort compare (List.map (render (depth + 1)) t.children) in
    List.iter (Buffer.add_string b) subtrees;
    Buffer.contents b
  in
  let tops = List.sort compare (List.map (render 0) (forest ?include_sched sps)) in
  List.iter (Buffer.add_string buf) tops;
  Buffer.contents buf

(* --- human-readable decision trace --- *)

let render_text ?include_sched sps =
  let buf = Buffer.create 4096 in
  let rec go depth t =
    let dur_ms =
      Int64.to_float (Int64.sub t.node.t_end_ns t.node.t_start_ns) /. 1e6
    in
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf t.node.name;
    Buffer.add_string buf (Printf.sprintf "  (%.3f ms)" dur_ms);
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "\n%s| %s = %s" (String.make (2 * depth) ' ') k v))
      t.node.attrs;
    Buffer.add_char buf '\n';
    List.iter (go (depth + 1)) t.children
  in
  List.iter (go 0) (forest ?include_sched sps);
  Buffer.contents buf

(* --- Chrome trace-event export --- *)

let to_chrome_json ?epoch_ms sps =
  let epoch_ms = match epoch_ms with Some v -> v | None -> Obs.epoch_ms () in
  let t0 =
    List.fold_left
      (fun acc s -> if s.t_start_ns < acc then s.t_start_ns else acc)
      (match sps with [] -> 0L | s :: _ -> s.t_start_ns)
      sps
  in
  let us ns = Int64.to_float ns /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String s.cat);
        ("ph", Json.String "X");
        ("ts", Json.Float (us (Int64.sub s.t_start_ns t0)));
        ("dur", Json.Float (us (Int64.sub s.t_end_ns s.t_start_ns)));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.domain);
        ( "args",
          Json.Obj
            (("span_id", Json.Int s.id)
            :: ("parent_id", match s.parent with Some p -> Json.Int p | None -> Json.Null)
            :: List.map (fun (k, v) -> (k, Json.String v)) s.attrs) );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map event sps));
         ("displayTimeUnit", Json.String "ms");
         ( "otherData",
           Json.Obj
             [
               ("trace_start_epoch_ms", Json.Float epoch_ms);
               ("dropped_spans", Json.Int (dropped ()));
             ] );
       ])
