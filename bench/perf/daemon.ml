(* The real `hoiho serve` binary as a child process: spawn, wait for
   health, scrape, measure, stop. Every daemon this process starts is
   killed at exit, whatever path the benchmark leaves by. *)

open Common

type t = { pid : int; port : int; out : Unix.file_descr }

let live : t list ref = ref []

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit kill_all

let read_line_until fd deadline =
  let b = Buffer.create 128 and one = Bytes.create 1 in
  let rec go () =
    let left = deadline -. now_s () in
    if left <= 0.0 then harness_error "daemon printed no port line in time";
    if not (Client.wait_readable fd left) then go ()
    else
      match Unix.read fd one 0 1 with
      | 0 -> harness_error "daemon exited before printing its port"
      | _ when Bytes.get one 0 = '\n' -> Buffer.contents b
      | _ ->
          Buffer.add_char b (Bytes.get one 0);
          go ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

(* "hoiho: serving MODEL on HOST:PORT (jobs=N)" *)
let parse_port line =
  match String.rindex_opt line '(' with
  | None -> None
  | Some paren -> (
      let before = String.trim (String.sub line 0 paren) in
      match String.rindex_opt before ':' with
      | None -> None
      | Some i -> int_of_string_opt (String.sub before (i + 1) (String.length before - i - 1)))

let healthy port =
  match Client.once ~timeout:5.0 port "GET" "/healthz" with
  | 200, _ -> true
  | _ -> false
  | exception Harness_error _ -> false

(* start the daemon and return it with the seconds from spawn until
   the first 200 from /healthz. It runs at a lower scheduling priority
   than the load generator it shares the cores with (nice 10, through
   nice(1), which execs it under the same pid): while a relearn keeps
   every core busy the generator still sends on time, so a late answer
   is the daemon's, not the generator's. *)
let spawn ~cli args =
  let t0 = now_s () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let argv = Array.of_list ("nice" :: "-n" :: "10" :: cli :: "serve" :: args) in
  let pid = Unix.create_process "nice" argv devnull out_w Unix.stderr in
  Unix.close out_w;
  Unix.close devnull;
  let d = { pid; port = 0; out = out_r } in
  live := d :: !live;
  let deadline = now_s () +. 120.0 in
  let rec find_port tries =
    if tries = 0 then harness_error "daemon never printed its bound port";
    match parse_port (read_line_until out_r deadline) with
    | Some p -> p
    | None -> find_port (tries - 1)
  in
  let port = find_port 5 in
  let d = { d with port } in
  live := d :: List.filter (fun x -> x.pid <> pid) !live;
  let rec wait_healthy () =
    if healthy port then ()
    else if now_s () > deadline then harness_error "daemon never answered /healthz with 200"
    else begin
      Unix.sleepf 0.002;
      wait_healthy ()
    end
  in
  wait_healthy ();
  (d, now_s () -. t0)

let status_kb d field = proc_status_kb (string_of_int d.pid) field

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now_s () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] d.pid with
    | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        false
    | _, WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (EINTR, _, _) -> wait ()
  in
  let clean = wait () in
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.close d.out with Unix.Unix_error _ -> ());
  clean

(* counters and gauges from GET /metrics, by registry name
   ("serve.cache_hits"); histogram samples are skipped *)
let scrape d =
  let status, body = Client.once d.port "GET" "/metrics" in
  if status <> 200 then harness_error "/metrics answered %d" status;
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' && not (String.contains line '{') then
        match String.rindex_opt line ' ' with
        | Some i -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
            | None -> ())
        | None -> ())
    (String.split_on_char '\n' body);
  tbl

let om_name name = "hoiho_" ^ String.map (fun c -> if Hoiho_util.Strutil.is_alnum c then c else '_') name
let counter tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl (om_name name ^ "_total"))
