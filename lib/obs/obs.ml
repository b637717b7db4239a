module Json = Hoiho_util.Json

type counter = { cname : string; ccell : int Atomic.t }
type gauge = { gname : string; gcell : int Atomic.t }

type histogram = { hname : string; hlock : Mutex.t; histo : Histo.t }

(* one registry per metric kind, all guarded by a single mutex;
   registration is rare (module initialization), reads and bumps never
   touch the registry *)
let reg_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 8
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let registered tbl name make =
  Mutex.protect reg_mutex (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
          let m = make name in
          Hashtbl.replace tbl name m;
          m)

let counter name =
  registered counters name (fun cname -> { cname; ccell = Atomic.make 0 })

let incr c = ignore (Atomic.fetch_and_add c.ccell 1)
let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.ccell n)
let count c = Atomic.get c.ccell

let gauge name =
  registered gauges name (fun gname -> { gname; gcell = Atomic.make 0 })

let rec observe_gauge g v =
  let cur = Atomic.get g.gcell in
  if v > cur && not (Atomic.compare_and_set g.gcell cur v) then observe_gauge g v

let set_gauge g v = Atomic.set g.gcell v
let gauge_value g = Atomic.get g.gcell

let histogram name =
  registered histograms name (fun hname ->
      { hname; hlock = Mutex.create (); histo = Histo.create () })

let observe h v = Mutex.protect h.hlock (fun () -> Histo.record h.histo v)

(* monotonic milliseconds (arbitrary epoch, differences only): a wall
   clock stepping backwards under NTP used to push negative durations
   into the histograms. OCaml's Unix module has no clock_gettime
   binding, so the CLOCK_MONOTONIC read comes from the bechamel
   monotonic-clock stub the bench harness already ships. *)
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* wall-clock epoch milliseconds, kept only for values that leave the
   process as absolute times (trace anchors, emitter timestamps) *)
let epoch_ms () = Unix.gettimeofday () *. 1000.0

let time h f =
  let t0 = now_ms () in
  Fun.protect ~finally:(fun () -> observe h (now_ms () -. t0)) f

(* --- snapshots --- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * Histo.stats) list;
}

let histo_stats h = Mutex.protect h.hlock (fun () -> Histo.stats h.histo)

let sorted_bindings tbl value =
  let all =
    Mutex.protect reg_mutex (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) tbl [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) all
  |> List.map (fun (name, m) -> (name, value m))

let snapshot () =
  {
    counters = sorted_bindings counters count;
    gauges = sorted_bindings gauges gauge_value;
    histograms = sorted_bindings histograms histo_stats;
  }

let find_counter snap name = List.assoc_opt name snap.counters
let find_histogram snap name = List.assoc_opt name snap.histograms

let reset () =
  Mutex.protect reg_mutex (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.ccell 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.gcell 0) gauges;
      Hashtbl.iter
        (fun _ h -> Mutex.protect h.hlock (fun () -> Histo.clear h.histo))
        histograms)

(* --- JSON rendering --- *)

let to_json snap =
  let ints metrics = Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) metrics) in
  let summary (s : Histo.stats) =
    Json.Obj
      [
        ("count", Json.Int s.n);
        ("p50_ms", Json.Float s.p50);
        ("p95_ms", Json.Float s.p95);
        ("p99_ms", Json.Float s.p99);
        ("max_ms", Json.Float s.max);
        ("total_ms", Json.Float s.sum);
      ]
  in
  Json.Obj
    [
      ("counters", ints snap.counters);
      ("gauges", ints snap.gauges);
      ("histograms", Json.Obj (List.map (fun (name, s) -> (name, summary s)) snap.histograms));
    ]

(* --- OpenMetrics text exposition ---

   The same snapshot, in the Prometheus/OpenMetrics exposition format:
   counters as `<name>_total`, gauges verbatim, histograms as summaries
   (count/sum plus p50/p95 quantile samples). Metric names are the
   registry names with every non-[a-zA-Z0-9_] byte mapped to '_' and a
   "hoiho_" namespace prefix. *)

let om_name name =
  "hoiho_"
  ^ String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name

let om_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.6g" v

let to_openmetrics snap =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Printf.bprintf buf "# TYPE %s counter\n%s_total %d\n" n n v)
    snap.counters;
  List.iter
    (fun (name, v) ->
      let n = om_name name in
      Printf.bprintf buf "# TYPE %s gauge\n%s %d\n" n n v)
    snap.gauges;
  List.iter
    (fun (name, (s : Histo.stats)) ->
      let n = om_name name in
      Printf.bprintf buf "# TYPE %s summary\n" n;
      List.iter
        (fun (q, v) -> Printf.bprintf buf "%s{quantile=\"%s\"} %s\n" n q (om_float v))
        [ ("0.5", s.p50); ("0.95", s.p95); ("0.99", s.p99) ];
      Printf.bprintf buf "%s_count %d\n%s_sum %s\n" n s.n n (om_float s.sum))
    snap.histograms;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* --- periodic exposition emitter ---

   Opt-in: a long learn run can be scraped mid-flight from a file. The
   emitter is one spare domain that rewrites [path] atomically
   (tmp + rename) every [period_s], polling its stop flag at 50 ms so
   shutdown is prompt; [stop_emitter] joins it and writes one final
   snapshot so the file always ends complete. *)

type emitter = {
  stop : bool Atomic.t;
  worker : unit Domain.t;
  epath : string;
}

(* pid-unique tmp name: two processes pointed at the same exposition
   path (or an emitter racing a final end-of-run writer) can never
   tear each other's tmp file; the rename stays the atomic commit *)
let write_channel_atomic path write =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  match
    let r = write oc in
    close_out oc;
    Sys.rename tmp path;
    r
  with
  | r -> r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

let write_file_atomic path contents =
  write_channel_atomic path (fun oc -> output_string oc contents)

let write_openmetrics path = write_file_atomic path (to_openmetrics (snapshot ()))

let start_emitter ?(period_s = 5.0) ~path () =
  let stop = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        let rec sleep remaining =
          if (not (Atomic.get stop)) && remaining > 0.0 then begin
            let nap = Float.min 0.05 remaining in
            Unix.sleepf nap;
            sleep (remaining -. nap)
          end
        in
        let rec loop () =
          sleep period_s;
          if not (Atomic.get stop) then begin
            (try write_openmetrics path with Sys_error _ -> ());
            loop ()
          end
        in
        loop ())
  in
  { stop; worker; epath = path }

(* join BEFORE the final write: with the worker still running, its
   last periodic rewrite could land after (and clobber) the final
   snapshot, leaving a file missing the run's closing metrics *)
let stop_emitter e =
  Atomic.set e.stop true;
  Domain.join e.worker;
  write_openmetrics e.epath
