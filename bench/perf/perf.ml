(* Layered benchmark for the three paths a user runs: `learn` on a
   corpus, bulk `apply` over a hostname stream, and `hoiho serve` over a
   socket. See README.md for the workloads, every metric, and how to
   compare two commits.

     bash bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
         [--out FILE] [--trace-out DIR]
     bash bench/perf/run.sh --seed N             (all four workloads)
     bash bench/perf/run.sh --compare PARENT.jsonl CHANGE.jsonl
     bash bench/perf/run.sh --smoke

   Each workload runs in a fresh child process (this executable again),
   so peak RSS and GC state belong to that workload alone. The last
   line of stdout is one JSON object: correct, attempted, failed, and
   the metrics of the run (end-to-end untraced, per-layer traced). *)

open Common
module Json = Hoiho_util.Json

let workloads = [ "learn-paper"; "apply-unique"; "serve-zipf"; "serve-observe" ]

(* 5% of the paper preset: 126,898 routers, 109,162 corpus hostnames,
   2,240 suffix groups. README.md gives the run times it costs. *)
let bench_size = Inputs.Paper 0.05

let exe () =
  if Filename.is_relative Sys.executable_name then Filename.concat (Sys.getcwd ()) Sys.executable_name
  else Sys.executable_name

(* Generated inputs and result files go to dune's build directory,
   beside the context this executable was built in
   (_build/default/bench/perf/perf.exe -> _build/perf-cache): ignored
   by git like every build output, removed by `dune clean`, and out of
   reach of dune's clean-up of stale files inside the context. *)
let cache_root () =
  let rec up n d = if n = 0 then d else up (n - 1) (Filename.dirname d) in
  Filename.concat (up 4 (exe ())) "perf-cache"

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable out : string option;
  mutable trace_out : string option;
  mutable cli : string option;
  mutable smoke : bool;
  mutable compare : (string * string) option;
  (* internal: the per-workload child and the input generator *)
  mutable child : string option;
  mutable inputs : string option;
  mutable result : string option;
  mutable generate : string option;
  mutable size : Inputs.size;
}

let usage () =
  prerr_endline
    "usage: perf [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] \
     [--trace-out DIR] [--cli HOIHO_EXE]\n\
    \       perf --compare PARENT.jsonl CHANGE.jsonl\n\
    \       perf --smoke [--cli HOIHO_EXE]\n\
     workloads: learn-paper apply-unique serve-zipf serve-observe";
  exit 2

let parse argv =
  let o =
    {
      workload = None; seed = 1; seconds = 10.0; trace = false; out = None; trace_out = None;
      cli = None; smoke = false; compare = None; child = None; inputs = None;
      result = None; generate = None; size = bench_size;
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads -> o.workload <- Some w; go rest
    | "--seed" :: n :: rest -> o.seed <- int n; go rest
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> o.seconds <- f; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> o.trace <- t = "1"; go rest
    | "--out" :: f :: rest -> o.out <- Some f; go rest
    | "--trace-out" :: d :: rest -> o.trace_out <- Some d; go rest
    | "--cli" :: c :: rest -> o.cli <- Some c; go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--compare" :: a :: b :: rest -> o.compare <- Some (a, b); go rest
    | "--child" :: w :: rest when List.mem w workloads -> o.child <- Some w; go rest
    | "--inputs" :: d :: rest -> o.inputs <- Some d; go rest
    | "--result" :: f :: rest -> o.result <- Some f; go rest
    | "--generate" :: d :: rest -> o.generate <- Some d; go rest
    | "--size" :: s :: rest -> (
        match Inputs.size_of_name s with Some z -> o.size <- z; go rest | None -> usage ())
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

let default_cli () =
  Filename.concat (Filename.dirname (exe ())) "../../bin/hoiho_cli.exe"

(* --- the child: one workload, results to a file --- *)

let run_child o w =
  let p =
    {
      inputs = Option.get o.inputs;
      seed = o.seed;
      seconds = o.seconds;
      trace = o.trace;
      smoke = o.smoke;
      cli = Option.value o.cli ~default:(default_cli ());
    }
  in
  let outcome =
    match w with
    | "learn-paper" -> Wl_learn.run p
    | "apply-unique" -> Wl_apply.run p
    | "serve-zipf" -> Wl_serve.run Wl_serve.Zipf p
    | _ -> Wl_serve.run Wl_serve.Uniform p
  in
  (match o.trace_out with
  | Some dir when outcome.spans <> [] -> Spans.write_chrome ~dir ~workload:w outcome.spans
  | _ -> ());
  let l = outcome.ledger in
  write_file (Option.get o.result)
    (Json.to_string
       (Json.Obj
          [
            ("attempted", Json.Int l.attempted);
            ("failed", Json.Int l.failed);
            ("notes", Json.List (List.rev_map (fun s -> Json.String s) l.notes));
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) outcome.metrics));
          ]))

(* --- the parent --- *)

let git_head () =
  let read p = try String.trim (read_file p) with Harness_error _ -> "" in
  match read ".git/HEAD" with
  | "" -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | "" -> (
          let packed = try read_lines ".git/packed-refs" with Harness_error _ -> [] in
          match List.find_opt (fun l -> Filename.check_suffix l (" " ^ r)) packed with
          | Some l -> String.sub l 0 (String.index l ' ')
          | None -> "unknown")
      | sha -> sha)
  | sha -> sha

let fingerprint ~key ~size ~seed =
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String (git_head ()));
      ("seed", Json.Int seed);
      ("size", Json.String (Inputs.size_name size));
      ("input_key", Json.String key);
    ]

let wait_child pid ~timeout =
  let deadline = now_s () +. timeout in
  let rec go () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.02;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        harness_error "workload child exceeded %.0f s" timeout
    | _, WEXITED 0 -> ()
    | _, WEXITED n -> harness_error "workload child exited %d" n
    | _, (WSIGNALED n | WSTOPPED n) -> harness_error "workload child died on signal %d" n
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

type result = {
  w : string;
  attempted : int;
  failed : int;
  notes : string list;
  values : (string * float) list;
}

let run_workload o ~inputs ~cli w =
  let result_file = Filename.concat (cache_root ()) (Printf.sprintf "result-%d-%s.json" (Unix.getpid ()) w) in
  let argv =
    [ exe (); "--child"; w; "--inputs"; inputs; "--seed"; string_of_int o.seed; "--seconds";
      Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0"); "--cli"; cli;
      "--result"; result_file ]
    @ (match o.trace_out with Some d -> [ "--trace-out"; d ] | None -> [])
    @ if o.smoke then [ "--smoke" ] else []
  in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin Unix.stderr Unix.stderr in
  wait_child pid ~timeout:170.0;
  let j =
    match Json.parse (read_file result_file) with
    | Ok j -> j
    | Error e -> harness_error "workload result does not parse: %s" e
  in
  (try Sys.remove result_file with Sys_error _ -> ());
  let int k = match Json.member k j with Some (Json.Int n) -> n | _ -> 0 in
  let values =
    match Json.member "metrics" j with
    | Some (Json.Obj l) ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.Float f -> Some (k, f)
            | Json.Int i -> Some (k, float_of_int i)
            | _ -> None)
          l
    | _ -> []
  in
  let notes =
    match Json.member "notes" j with
    | Some (Json.List l) -> List.filter_map (function Json.String s -> Some s | _ -> None) l
    | _ -> []
  in
  { w; attempted = int "attempted"; failed = int "failed"; notes; values }


let mode_defs (table : Metrics.t) o = if o.trace then table.per_layer else table.end_to_end

(* the metrics of this mode the workload measured *)
let measured table o r =
  List.filter_map
    (fun (d : Metrics.def) -> Option.map (fun v -> (d, v)) (List.assoc_opt d.name r.values))
    (mode_defs table o)

(* every metric of this mode; a per-layer metric the workload does not
   exercise reads 0 *)
let complete table o r =
  List.map
    (fun (d : Metrics.def) -> (d, Option.value (List.assoc_opt d.name r.values) ~default:0.0))
    (mode_defs table o)

let metric_json (d : Metrics.def) v = Json.Obj [ ("value", Json.Float v); ("unit", Json.String d.unit) ]

let append_out path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  output_string oc (line ^ "\n");
  close_out oc

(* A served run whose load generator sent more than 1 ms late (p99)
   measured the generator as much as the daemon: it is marked invalid
   rather than read as slow. *)
let late_limit_ms = 1.0

let record (table : Metrics.t) o ~key ~size ~gen_meta r =
  let ratio_failed = ratio (float_of_int r.failed) (float_of_int r.attempted) in
  let late = Option.value (List.assoc_opt "client.late_p99_ms" r.values) ~default:0.0 in
  let valid = late <= late_limit_ms in
  Printf.printf "%s: %d operations checked, %d failed (failed_ratio %g)\n" r.w r.attempted r.failed ratio_failed;
  List.iter (fun n -> log "%s: FAILED %s" r.w n) r.notes;
  if not valid then
    log "%s: INVALID run: the load generator sent %.2f ms late at p99 (limit %.0f ms)" r.w late late_limit_ms;
  List.iter
    (fun ((d : Metrics.def), v) -> Printf.printf "%s %-34s %14.6g %s\n" r.w d.name v d.unit)
    (measured table o r);
  match o.out with
  | None -> ()
  | Some path ->
      let all =
        List.filter_map
          (fun (d : Metrics.def) -> Option.map (fun v -> (d.name, metric_json d v)) (List.assoc_opt d.name r.values))
          (table.end_to_end @ table.per_layer)
      in
      append_out path
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.String r.w);
                ("trace", Json.Bool o.trace);
                ("seconds", Json.Float o.seconds);
                ("correct", Json.Bool (r.failed = 0));
                ("valid", Json.Bool valid);
                ("attempted", Json.Int r.attempted);
                ("failed", Json.Int r.failed);
                ("failed_ratio", Json.Float ratio_failed);
                ("metrics", Json.Obj all);
                ("host", fingerprint ~key ~size ~seed:o.seed);
                ("inputs", gen_meta);
              ]))

let run_parent table o =
  let size = if o.smoke then Inputs.Tiny else o.size in
  let root = cache_root () in
  mkdir_p root;
  let exe = exe () in
  let key = Inputs.key ~exe ~size in
  let inputs =
    Inputs.ensure ~root ~key ~gen_argv:(fun dir -> [| exe; "--generate"; dir; "--size"; Inputs.size_name size |])
  in
  Inputs.evict root;
  let gen_meta = Inputs.meta inputs in
  let cli = Option.value o.cli ~default:(default_cli ()) in
  if not (Sys.file_exists cli) then harness_error "hoiho executable %s not found (use --cli)" cli;
  let ws = match o.workload with Some w -> [ w ] | None -> workloads in
  let results =
    List.map
      (fun w ->
        let r = run_workload o ~inputs ~cli w in
        record table o ~key ~size ~gen_meta r;
        r)
      ws
  in
  let failed = List.fold_left (fun k r -> k + r.failed) 0 results in
  let attempted = List.fold_left (fun k r -> k + r.attempted) 0 results in
  let metrics =
    match results with
    | [ r ] -> List.map (fun ((d : Metrics.def), v) -> (d.name, metric_json d v)) (complete table o r)
    | _ ->
        List.concat_map
          (fun r ->
            List.map (fun ((d : Metrics.def), v) -> (r.w ^ "/" ^ d.name, metric_json d v)) (measured table o r))
          results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]));
  failed

(* --smoke: the tiny preset, one short pass of every workload with its
   traced phase, and the --compare parser over what that wrote. Fails
   on any wrong answer or harness error, including a BENCHMARK.json
   that does not parse. *)
let run_smoke table o =
  let out = Filename.concat (cache_root ()) "smoke.jsonl" in
  mkdir_p (cache_root ());
  (try Sys.remove out with Sys_error _ -> ());
  o.seconds <- 1.0;
  o.out <- Some out;
  let failed_traced = (o.trace <- true; run_parent table o) in
  let failed_timed = (o.trace <- false; o.workload <- Some "apply-unique"; run_parent table o) in
  Compare.run table out out;
  failed_traced + failed_timed

let () =
  let o = parse Sys.argv in
  let code =
    try
      match (o.generate, o.child, o.compare) with
      | Some dir, _, _ ->
          Inputs.generate ~size:o.size ~dir;
          0
      | None, Some w, _ ->
          run_child o w;
          0
      | None, None, Some (a, b) ->
          Compare.run (Metrics.load ()) a b;
          0
      | None, None, None ->
          let table = Metrics.load () in
          if o.smoke then if run_smoke table o = 0 then 0 else 1
          else begin
            ignore (run_parent table o);
            0
          end
    with Harness_error m ->
      log "harness error: %s" m;
      3
  in
  exit code
