(* The benchmark's own spans. A traced run wraps each call it makes into
   a layer's public function in a span of category "bench"; the
   program's internal spans stay off, so what is measured is exactly
   the layers as the benchmark calls them, at the cost of a few hundred
   spans. A layer's self time is its span's duration minus the time
   covered by its child spans. *)

module Trace = Hoiho_obs.Trace

let active = ref false

(* Tracing is switched on only at the boundary of a bench span and off
   again inside it, so library spans under it are never recorded. *)
let span ?parent name f =
  if not !active then f ()
  else begin
    Trace.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled false)
      (fun () ->
        Trace.with_span ~cat:"bench" ?parent name (fun () ->
            Trace.set_enabled false;
            f ()))
  end

let start () =
  Trace.set_enabled false;
  Trace.clear ();
  active := true

let stop () =
  active := false;
  Trace.set_enabled false;
  List.filter (fun (s : Trace.span) -> s.Trace.cat = "bench") (Trace.spans ())

let current_parent () =
  Trace.set_enabled true;
  let p = Trace.fanout_parent () in
  Trace.set_enabled false;
  p

let dur_s (s : Trace.span) = Int64.to_float (Int64.sub s.Trace.t_end_ns s.Trace.t_start_ns) /. 1e9

(* length of the union of [intervals], clipped to [lo, hi] *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Int64.max a lo and b = Int64.min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if Int64.compare a cb <= 0 then (total, Some (ca, Int64.max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  let total = match last with Some (a, b) -> Int64.add total (Int64.sub b a) | None -> total in
  Int64.to_float total /. 1e9

type summary = {
  spans : Trace.span list;
  self_s : (int, float) Hashtbl.t;  (** span id -> self seconds *)
  children : (int, Trace.span list) Hashtbl.t;
}

let summarize spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.parent with
      | Some p ->
          Hashtbl.replace children p
            (s :: Option.value (Hashtbl.find_opt children p) ~default:[])
      | None -> ())
    spans;
  let self_s = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      let kids = Option.value (Hashtbl.find_opt children s.Trace.id) ~default:[] in
      let busy =
        covered s.Trace.t_start_ns s.Trace.t_end_ns
          (List.map (fun (c : Trace.span) -> (c.Trace.t_start_ns, c.Trace.t_end_ns)) kids)
      in
      Hashtbl.replace self_s s.Trace.id (dur_s s -. busy))
    spans;
  { spans; self_s; children }

let named sum name = List.filter (fun (s : Trace.span) -> s.Trace.name = name) sum.spans
let count sum name = List.length (named sum name)
let total_s sum name = List.fold_left (fun acc s -> acc +. dur_s s) 0.0 (named sum name)

let self_total_s sum name =
  List.fold_left (fun acc (s : Trace.span) -> acc +. Hashtbl.find sum.self_s s.Trace.id) 0.0
    (named sum name)

let root sum name =
  match List.find_opt (fun (s : Trace.span) -> s.Trace.parent = None) (named sum name) with
  | Some s -> s
  | None -> Common.harness_error "no %s root span was recorded" name

(* The layer-sum check: the self times of the [layers] spans under
   [root] over the root's duration. Glue the layers do not account for
   (the root's own self time, grouping spans) pushes it below 1; layer
   spans that overlap in time push it above. *)
let coverage sum (root : Trace.span) ~layers =
  let rec subtree (s : Trace.span) =
    let kids = Option.value (Hashtbl.find_opt sum.children s.Trace.id) ~default:[] in
    List.fold_left
      (fun acc (k : Trace.span) ->
        let own = if List.mem k.Trace.name layers then Hashtbl.find sum.self_s k.Trace.id else 0.0 in
        acc +. own +. subtree k)
      0.0 kids
  in
  Common.ratio (subtree root) (dur_s root)

let write_chrome ~dir ~workload spans =
  Common.mkdir_p dir;
  Common.write_file
    (Filename.concat dir (workload ^ ".trace.json"))
    (Trace.to_chrome_json spans)
