(* The benchmark's inputs, generated once and cached on disk.

   The program under test only ever sees files: an ITDK corpus
   ([Io.save]), a model snapshot learned from that corpus as
   [hoiho learn -i] would, a hostname list, and the /observe bodies.
   Everything else here is the answer key the checks compare against,
   computed through the reference path ([Pipeline.geolocate_conf] on a
   batch learn).

   One entry, keyed by (benchmark executable digest, size) and generated
   in its own process, never timed. The corpus is drawn with the
   preset's own seed and the hostname list from it, so the run-to-run
   spread is about the code: across corpus seeds, learn and apply times
   alone spread by about 20%. The workload seed picks what a run does
   with them: the order names are applied in, which names a Zipf draw
   favours, and every request sequence. A new seed therefore costs no
   generation.

   The digest is of this executable, so a build of another commit never
   reuses these files. *)

open Common
module Generate = Hoiho_netsim.Generate
module Presets = Hoiho_netsim.Presets
module Evolve = Hoiho_netsim.Evolve
module Io = Hoiho_itdk.Io
module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router
module Pipeline = Hoiho.Pipeline
module Learned_io = Hoiho.Learned_io
module Delta = Hoiho.Delta
module Serve = Hoiho_serve.Serve
module Json = Hoiho_util.Json
module Prng = Hoiho_util.Prng
module Strutil = Hoiho_util.Strutil

(* [Paper s] is [Presets.paper ~scale:s]; [Tiny] is the unit-test preset
   the smoke run uses *)
type size = Paper of float | Tiny

let size_name = function Paper s -> Printf.sprintf "paper%g" s | Tiny -> "tiny"

let size_of_name = function
  | "tiny" -> Some Tiny
  | s when String.length s > 5 && String.sub s 0 5 = "paper" ->
      Option.map (fun f -> Paper f) (float_of_string_opt (String.sub s 5 (String.length s - 5)))
  | _ -> None

let preset = function Paper scale -> Presets.paper ~scale () | Tiny -> Presets.tiny ()

(* per-router drift of the observe epoch: low enough that each body
   dirties about 1-2% of the suffix groups at paper scale *)
let drift = function Paper _ -> 0.0015 | Tiny -> 0.05

(* one body every 2 s of a 10 s timed phase *)
let n_observes = 5
let n_probes = 2000

(* each corpus hostname plus this many digit-variants of it: unseen
   names like most of a real rDNS sweep, and enough of them that the
   working set outgrows the daemon's 65,536-entry cache *)
let variants_per_name = 2

let corpus_file dir = Filename.concat dir "corpus.itdk"
let model_file dir = Filename.concat dir "model.json"
let observe_file dir k = Filename.concat dir (Printf.sprintf "observe%02d.json" k)
let hosts_file dir = Filename.concat dir "hosts.txt"
let answers_file dir = Filename.concat dir "answers.txt"
let alt_file dir = Filename.concat dir "observe_alt.txt"
let probe_file dir = Filename.concat dir "probe.txt"
let meta_file dir = Filename.concat dir "meta.json"
let complete_file dir = Filename.concat dir "complete"

(* the snapshot with its wall-clock metrics block blanked: two learns of
   the same corpus must agree on these bytes at any [jobs] *)
let model_digest (m : Learned_io.t) =
  Digest.to_hex (Digest.string (Learned_io.encode { m with Learned_io.metrics = Json.Obj [] }))

let write_lines path lines =
  let b = Buffer.create 65536 in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  write_file path (Buffer.contents b)

let mutate_digits rng h =
  String.map (fun c -> if Strutil.is_digit c then Char.chr (48 + Prng.int rng 10) else c) h

(* distinct after normalization, so a pass over the list never asks the
   same question twice *)
let hostname_list rng (ds : Dataset.t) =
  let seen = Hashtbl.create 65536 in
  let out = ref [] in
  let add h =
    let key = Strutil.normalize_hostname h in
    if
      key <> "" && (not (Hashtbl.mem seen key))
      && not (String.exists (fun c -> c = '\t' || c = '\n' || c = '\r') h)
    then begin
      Hashtbl.add seen key ();
      out := h :: !out
    end
  in
  Array.iter (fun (r : Router.t) -> List.iter add r.Router.hostnames) ds.Dataset.routers;
  let corpus_names = List.rev !out in
  List.iter
    (fun h ->
      for _ = 1 to variants_per_name do
        add (mutate_digits rng h)
      done)
    corpus_names;
  Array.of_list (List.rev !out)

let registered_suffix h = Hoiho_psl.Psl.registered_suffix (Strutil.normalize_hostname h)
let key_line a = answer_to_field (answer_of_pipeline a)

let generate ~size ~dir =
  let t0 = now_s () in
  let gen = preset size in
  let ds0, truth = Generate.generate gen in
  Io.save (corpus_file dir) ds0;
  (* learn from what the program will read back, exactly as
     [hoiho learn -i] does: the text format rounds RTTs *)
  let ds = Io.load (corpus_file dir) in
  (* jobs=1: the reference every parallel learn must reproduce *)
  let p = Pipeline.run ~jobs:1 ds in
  let model = Learned_io.of_pipeline p in
  Learned_io.save (model_file dir) model;
  let n_groups = List.length p.Pipeline.results in
  let hosts = hostname_list (Prng.create gen.Generate.seed) ds in
  write_lines (hosts_file dir) (Array.to_list hosts);
  write_lines (answers_file dir)
    (Array.to_list (Array.map (fun h -> key_line (Pipeline.geolocate_conf p h)) hosts));
  (* the /observe bodies: one low-drift epoch cut into equal slices *)
  let d = drift size in
  let epoch =
    { Evolve.seed = gen.Generate.seed; p_renumber = d; p_migrate = d; p_decay = d; p_add = d; p_remove = d }
  in
  let ds1, _ = Evolve.epoch epoch (ds, truth) in
  let events = Array.of_list (Delta.events_between ds ds1) in
  let n = Array.length events in
  let bodies =
    List.init n_observes (fun k ->
        let lo = k * n / n_observes and hi = (k + 1) * n / n_observes in
        Delta.events_to_string (Array.to_list (Array.sub events lo (hi - lo))))
  in
  List.iteri (fun k body -> write_file (observe_file dir (k + 1)) body) bodies;
  (* replay the bodies as the daemon will: each answer a name may take
     between two observes is acceptable while they land *)
  let suffixes = Array.map registered_suffix hosts in
  let alt = ref [] and dirty_all = Hashtbl.create 64 and dirty_counts = ref [] in
  let model_k = ref model and corpus_k = ref ds in
  List.iteri
    (fun k body ->
      let events =
        match Delta.events_of_string body with
        | Ok evs -> evs
        | Error e -> harness_error "observe body %d does not decode: %s" (k + 1) e
      in
      match Delta.relearn_model ~jobs:1 ~model:!model_k ~corpus:!corpus_k events with
      | Error e -> harness_error "observe body %d: %s" (k + 1) (Delta.error_to_string e)
      | Ok (m, c, stats) ->
          model_k := m;
          corpus_k := c;
          dirty_counts := List.length stats.Delta.dirty :: !dirty_counts;
          let dirty = Hashtbl.create 16 in
          List.iter
            (fun s ->
              Hashtbl.replace dirty s ();
              Hashtbl.replace dirty_all s ())
            stats.Delta.dirty;
          let serve = Serve.create m in
          Array.iteri
            (fun i h ->
              match suffixes.(i) with
              | Some s when Hashtbl.mem dirty s ->
                  let a = answer_of_serve (Serve.geolocate_uncached_conf serve h) in
                  alt := Printf.sprintf "%d\t%s" i (answer_to_field a) :: !alt
              | _ -> ())
            hosts)
    bodies;
  write_lines (alt_file dir) (List.rev !alt);
  (* the final check's key: a from-scratch batch learn of the final
     corpus, probed on names under dirtied suffixes first *)
  let p_final = Pipeline.run ~jobs:1 !corpus_k in
  let dirty_idx, clean_idx =
    List.partition
      (fun i -> match suffixes.(i) with Some s -> Hashtbl.mem dirty_all s | None -> false)
      (List.init (Array.length hosts) Fun.id)
  in
  write_lines (probe_file dir)
    (List.map
       (fun i -> Printf.sprintf "%s\t%s" hosts.(i) (key_line (Pipeline.geolocate_conf p_final hosts.(i))))
       (List.filteri (fun j _ -> j < n_probes) (dirty_idx @ clean_idx)));
  write_file (meta_file dir)
    (Json.to_string
       (Json.Obj
          [
            ("size", Json.String (size_name size));
            ("routers", Json.Int (Dataset.n_routers ds));
            ( "corpus_hostnames",
              Json.Int
                (Array.fold_left (fun n (r : Router.t) -> n + List.length r.Router.hostnames) 0 ds.Dataset.routers)
            );
            ("suffix_groups", Json.Int n_groups);
            ("hosts", Json.Int (Array.length hosts));
            ("learn_digest", Json.String (model_digest model));
            ("observe_events", Json.Int n);
            ("observe_dirty", Json.List (List.rev_map (fun n -> Json.Int n) !dirty_counts));
            ("relearned_digest", Json.String (model_digest !model_k));
            ("final_digest", Json.String (model_digest (Learned_io.of_pipeline p_final)));
            ("generate_s", Json.Float (now_s () -. t0));
          ]));
  write_file (complete_file dir) ""

(* --- the on-disk cache --- *)

(* an entry at paper scale 0.05 takes about 210 MB; keep the current
   one and the one before it *)
let keep_entries = 2

let key ~exe ~size = Printf.sprintf "%s-%s" (String.sub (Digest.to_hex (Digest.file exe)) 0 16) (size_name size)

let evict root =
  let entries =
    Array.to_list (try Sys.readdir root with Sys_error _ -> [||])
    |> List.map (fun e -> Filename.concat root e)
    |> List.filter Sys.is_directory
    |> List.map (fun p -> ((try (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> 0.0), p))
    |> List.sort (fun a b -> compare b a)
  in
  List.iteri (fun i (_, p) -> if i >= keep_entries then rm_rf p) entries

(* the entry directory [root/key], generated by running [argv dir] in a
   child process when it is absent or incomplete *)
let ensure ~root ~key ~gen_argv =
  let dir = Filename.concat root key in
  if Sys.file_exists (complete_file dir) then Unix.utimes dir 0.0 0.0
  else begin
    rm_rf dir;
    mkdir_p dir;
    let argv = gen_argv dir in
    let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stderr Unix.stderr in
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> harness_error "input generation for %s failed" key);
    if not (Sys.file_exists (complete_file dir)) then
      harness_error "input generation for %s left no complete marker" key
  end;
  dir

(* --- reading the inputs back --- *)

let meta dir =
  match Json.parse (read_file (meta_file dir)) with
  | Ok j -> j
  | Error e -> harness_error "%s: %s" (meta_file dir) e

let meta_string dir k =
  match Json.member k (meta dir) with Some (Json.String s) -> s | _ -> harness_error "meta: no %s" k

let hosts dir = Array.of_list (read_lines (hosts_file dir))
let answers dir = Array.of_list (List.map answer_of_field (read_lines (answers_file dir)))
let observe_bodies dir = List.init n_observes (fun k -> read_file (observe_file dir (k + 1)))

(* a permutation of [0, n) drawn from the workload seed *)
let seeded_order ~seed n =
  let a = Array.init n Fun.id in
  Prng.shuffle (Prng.create seed) a;
  a

let split_tab path line =
  match String.index_opt line '\t' with
  | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  | None -> harness_error "malformed line in %s" path

(* per host index, every answer a model of the observe sequence gives it
   besides the initial one *)
let alternatives dir =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun line ->
      let idx, a = split_tab (alt_file dir) line in
      let idx = int_of_string idx and a = answer_of_field a in
      Hashtbl.replace tbl idx (a :: Option.value (Hashtbl.find_opt tbl idx) ~default:[]))
    (read_lines (alt_file dir));
  tbl

let probes dir =
  List.map
    (fun line ->
      let h, a = split_tab (probe_file dir) line in
      (h, answer_of_field a))
    (read_lines (probe_file dir))
