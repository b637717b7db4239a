(* Small helpers shared by every part of the benchmark: clocks, order
   statistics, /proc readings, files, and the failure ledger each
   workload fills while it checks answers. *)

exception Harness_error of string
(* Something the benchmark needs broke (a daemon that never answers, a
   missing input file): the run has no result and exits non-zero.
   Wrong answers from the program are not harness errors; they are
   counted in a [ledger]. *)

let harness_error fmt = Printf.ksprintf (fun m -> raise (Harness_error m)) fmt

let now_s () = Hoiho_obs.Obs.now_ms () /. 1000.0
let log fmt = Printf.ksprintf (fun m -> prerr_endline ("perf: " ^ m)) fmt

(* --- order statistics --- *)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* linear interpolation between closest ranks; [p] in [0,1] *)
let quantile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = min (n - 1) (max 0 (truncate x)) in
    let frac = x -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let percentile a p = quantile_sorted (sorted_copy a) p
let median a = percentile a 0.5

(* The tail a sample supports: the highest percentile with at least ten
   samples beyond it, capped at p99. With 1000 samples or more this is
   p99; with 20 it is the median. *)
let tail a =
  let n = float_of_int (Array.length a) in
  percentile a (Float.max 0.5 (Float.min 0.99 (1.0 -. (10.0 /. n))))

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so spreads printed here match the ones a reader recomputes
   from the results file. Needs at least two values. *)
let quartiles a =
  let d = sorted_copy a in
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* --- process readings --- *)

let proc_status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let n = String.length prefix in
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.length line > n && String.sub line 0 n = prefix ->
            Scanf.sscanf_opt (String.sub line n (String.length line - n)) " %d" Fun.id
        | _ -> go ()
      in
      let r = go () in
      close_in_noerr ic;
      r

let self_hwm_mb () =
  match proc_status_kb "self" "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> harness_error "cannot read VmHWM of this process"

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let nproc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
      let n = ref 0 in
      (try
         while true do
           let l = input_line ic in
           if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
         done
       with End_of_file -> ());
      close_in_noerr ic;
      if !n > 0 then !n else Domain.recommended_domain_count ()

(* --- files --- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error e -> harness_error "cannot read %s: %s" path e

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

(* tmp + rename, so a killed generator never leaves a half-written
   input that a later run would trust *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
  Sys.rename tmp path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* --- answers ---

   One rendering of an answer, shared by every check: the daemon's
   response body ("CITY\tCONF" with CONF to three decimals, "-" for no
   answer). The exact confidence travels as a hex float in the input
   files so in-process checks compare bits, not three decimals. *)

type answer = { city : string; conf : float }

let answer_of_serve (a : Hoiho_serve.Serve.answer) =
  {
    city =
      (match a.Hoiho_serve.Serve.city with
      | Some c -> Hoiho_geodb.City.describe c
      | None -> "-");
    conf = a.Hoiho_serve.Serve.confidence;
  }

let answer_of_pipeline (city, conf) =
  {
    city = (match city with Some c -> Hoiho_geodb.City.describe c | None -> "-");
    conf;
  }

let body_of_answer a = Printf.sprintf "%s\t%.3f\n" a.city a.conf
let answer_to_field a = Printf.sprintf "%s\t%h" a.city a.conf

let answer_of_field s =
  match String.rindex_opt s '\t' with
  | Some i ->
      {
        city = String.sub s 0 i;
        conf = float_of_string (String.sub s (i + 1) (String.length s - i - 1));
      }
  | None -> harness_error "malformed answer field %S" s

(* --- the failure ledger --- *)

type ledger = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let ledger () = { attempted = 0; failed = 0; notes = [] }

let check l ok fmt =
  Printf.ksprintf
    (fun msg ->
      l.attempted <- l.attempted + 1;
      if not ok then begin
        l.failed <- l.failed + 1;
        if List.length l.notes < 10 then l.notes <- msg :: l.notes
      end)
    fmt

(* several operations checked at once, [bad] of them wrong *)
let check_many l ~n ~bad note =
  l.attempted <- l.attempted + n;
  if bad > 0 then begin
    l.failed <- l.failed + bad;
    if List.length l.notes < 10 then l.notes <- note :: l.notes
  end

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- what a workload receives and returns --- *)

type params = {
  inputs : string;  (** the input cache entry *)
  seed : int;
  seconds : float;  (** length of the timed phase *)
  trace : bool;  (** also run the traced phase *)
  smoke : bool;  (** one pass of everything, on the tiny preset *)
  cli : string;  (** the hoiho executable *)
}

type outcome = {
  metrics : (string * float) list;
  ledger : ledger;
  spans : Hoiho_obs.Trace.span list;
}
