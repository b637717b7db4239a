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

let c_recorded = Obs.counter "trace.spans_recorded"
let c_dropped = Obs.counter "trace.spans_dropped"

(* --- bounded collectors ---

   A collector keeps the first [capacity] spans to complete and counts
   the rest as dropped, never overwriting: parents complete after
   their children, so drop-newest sheds whole subtrees from the top
   rather than punching holes in the middle. The bound is the memory
   guard; the list grows with what is recorded, so a collector costs
   nothing up front. *)

let capacity = 65536

type collector = {
  used : int Atomic.t;  (* slots claimed, dropped spans included *)
  kept : span list Atomic.t;
}

let make_collector () = { used = Atomic.make 0; kept = Atomic.make [] }

let rec push cell sp =
  let l = Atomic.get cell in
  if not (Atomic.compare_and_set cell l (sp :: l)) then push cell sp

let record c sp =
  if Atomic.fetch_and_add c.used 1 < capacity then begin
    push c.kept sp;
    Obs.incr c_recorded
  end
  else Obs.incr c_dropped

let collected c =
  List.sort (fun a b -> compare (a.t_start_ns, a.id) (b.t_start_ns, b.id)) (Atomic.get c.kept)

let dropped_of c = max 0 (Atomic.get c.used - capacity)

(* --- what records ---

   The process-wide collector records while [set_enabled true] holds,
   and a [collect] call records into its own collector. [recording]
   counts both (the switch counts one while on), so when it reads 0
   nothing records anywhere, and every entry point returns after that
   one atomic load. *)

let global = make_collector ()
let global_on = Atomic.make false
let recording = Atomic.make 0
let enabled () = Atomic.get recording > 0

let set_enabled v =
  if Atomic.exchange global_on v <> v then
    ignore (Atomic.fetch_and_add recording (if v then 1 else -1))

let clear () =
  Atomic.set global.used 0;
  Atomic.set global.kept []

let spans () = collected global
let dropped () = dropped_of global

(* --- live spans and the per-domain state --- *)

type live = {
  lid : int;
  lparent : int option;
  lname : string;
  lcat : string;
  lstart : int64;
  mutable lattrs : (string * string) list;  (* reversed *)
  lsink : collector;  (* fixed when the span opens *)
}

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* a span context: [outer], the parent of spans opened on an empty
   stack, and the collector of the enclosing [collect], if any *)
type ctx = { outer : int option; sink : collector option }

let no_ctx = { outer = None; sink = None }

(* each domain's stack of live spans and the context installed around
   the work it runs ([collect], or a pool job's [with_ctx]). The
   context's [outer] is consulted only when the stack is empty, so
   synchronous nesting always wins. *)
type dstate = { mutable stack : live list; mutable ctx : ctx }

let state_key = Domain.DLS.new_key (fun () -> { stack = []; ctx = no_ctx })

(* where a span opened now goes: the enclosing [collect]'s collector,
   else the process-wide one while it is switched on *)
let sink st =
  match st.ctx.sink with
  | Some _ as c -> c
  | None -> if Atomic.get global_on then Some global else None

let innermost st = match st.stack with l :: _ -> Some l.lid | [] -> st.ctx.outer
let now_ns () = Monotonic_clock.now ()

type parent = Stack | Root | Span of int

let fanout_parent () =
  if not (enabled ()) then Root
  else match innermost (Domain.DLS.get state_key) with Some id -> Span id | None -> Root

(* --- span-context propagation across pool fan-out --- *)

let capture () =
  if not (enabled ()) then no_ctx
  else
    let st = Domain.DLS.get state_key in
    { outer = innermost st; sink = st.ctx.sink }

(* run [f] with [ctx] installed and the domain's own live spans masked:
   a waiting caller runs jobs of fan-outs opened on other domains from
   inside its own live spans, and those jobs must nest under the span
   they were SUBMITTED from, into the collector they were submitted
   under *)
let install ctx f =
  let st = Domain.DLS.get state_key in
  let saved_stack = st.stack and saved_ctx = st.ctx in
  st.stack <- [];
  st.ctx <- ctx;
  Fun.protect
    ~finally:(fun () ->
      st.stack <- saved_stack;
      st.ctx <- saved_ctx)
    f

let with_ctx ctx f = if not (enabled ()) then f () else install ctx f

let collect f =
  let c = make_collector () in
  Atomic.incr recording;
  let v =
    Fun.protect
      ~finally:(fun () -> Atomic.decr recording)
      (fun () -> install { outer = None; sink = Some c } f)
  in
  (v, collected c, dropped_of c)

let domain_id () = (Domain.self () :> int)

let with_span ?(cat = "work") ?(parent = Stack) ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else
    let st = Domain.DLS.get state_key in
    match sink st with
    | None -> f ()
    | Some lsink ->
        let live =
          {
            lid = fresh_id ();
            lparent =
              (match parent with Stack -> innermost st | Root -> None | Span id -> Some id);
            lname = name;
            lcat = cat;
            lstart = now_ns ();
            lattrs = List.rev attrs;
            lsink;
          }
        in
        st.stack <- live :: st.stack;
        Fun.protect
          ~finally:(fun () ->
            (match st.stack with
            | l :: rest when l == live -> st.stack <- rest
            | stack ->
                (* a callee escaped its span (e.g. an effect); drop down
                   to self-repair rather than corrupt the stack *)
                st.stack <- List.filter (fun l -> not (l == live)) stack);
            record live.lsink
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

let add_attr key value =
  if enabled () then
    let st = Domain.DLS.get state_key in
    match st.stack with
    | live :: _ when Option.is_some (sink st) -> live.lattrs <- (key, value) :: live.lattrs
    | _ -> ()

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

let to_chrome_json ?epoch_ms ?dropped:n sps =
  let epoch_ms = match epoch_ms with Some v -> v | None -> Obs.epoch_ms () in
  let n = match n with Some n -> n | None -> dropped () in
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
               ("dropped_spans", Json.Int n);
             ] );
       ])
