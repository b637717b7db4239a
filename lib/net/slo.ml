module Json = Hoiho_util.Json
module Health = Hoiho_obs.Health

type t = {
  objectives : Health.objective list;
  bucket_ms : float;
  nbuckets : int;
}

let metrics =
  [ "latency_p50_ms"; "latency_p99_ms"; "error_rate"; "shed_rate";
    "calibration_drift" ]

let max_buckets = 120
let max_file_bytes = 65536

let ( let* ) r f = Result.bind r f

let as_number path = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | j -> Error (Printf.sprintf "%s: expected number, got %s" path (Json.kind j))

let objective_of_json path json =
  let* metric =
    match Json.member "metric" json with
    | Some (Json.String s) -> Ok s
    | Some j ->
        Error (Printf.sprintf "%s.metric: expected string, got %s" path
                 (Json.kind j))
    | None -> Error (path ^ ".metric: missing")
  in
  let* () =
    if List.mem metric metrics then Ok ()
    else
      Error
        (Printf.sprintf "%s.metric: unknown metric %S (known: %s)" path metric
           (String.concat ", " metrics))
  in
  let* max_value =
    match Json.member "max" json with
    | Some j -> as_number (path ^ ".max") j
    | None -> Error (path ^ ".max: missing")
  in
  let* () =
    if max_value > 0.0 then Ok ()
    else Error (Printf.sprintf "%s.max: must be positive" path)
  in
  let* fail_ratio =
    match Json.member "fail_ratio" json with
    | None -> Ok 2.0
    | Some j -> as_number (path ^ ".fail_ratio") j
  in
  let* () =
    if fail_ratio > 1.0 then Ok ()
    else Error (Printf.sprintf "%s.fail_ratio: must exceed 1" path)
  in
  Ok { Health.metric; max_value; fail_ratio }

let parse s =
  let* json = Json.parse s in
  let* window_s =
    match Json.member "window_s" json with
    | None -> Ok 60.0
    | Some j -> as_number "$.window_s" j
  in
  let* () =
    if window_s > 0.0 then Ok () else Error "$.window_s: must be positive"
  in
  let* nbuckets =
    match Json.member "buckets" json with
    | None -> Ok 12
    | Some (Json.Int n) when n > max_buckets ->
        Error
          (Printf.sprintf "$.buckets: %d exceeds the limit of %d" n max_buckets)
    | Some (Json.Int n) when n >= 1 -> Ok n
    | Some j ->
        Error
          (Printf.sprintf "$.buckets: expected positive int, got %s"
             (Json.kind j))
  in
  let* items =
    match Json.member "objectives" json with
    | Some (Json.List l) -> Ok l
    | Some j ->
        Error (Printf.sprintf "$.objectives: expected list, got %s" (Json.kind j))
    | None -> Error "$.objectives: missing"
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
        let* o = objective_of_json (Printf.sprintf "$.objectives[%d]" i) item in
        go (i + 1) (o :: acc) rest
  in
  let* objectives = go 0 [] items in
  Ok
    {
      objectives;
      bucket_ms = window_s *. 1000.0 /. float_of_int nbuckets;
      nbuckets;
    }

let load path =
  match
    In_channel.with_open_bin path (fun ic ->
        let n = in_channel_length ic in
        if n > max_file_bytes then
          Error
            (Printf.sprintf "%s: %d bytes exceeds the limit of %d for an SLO file"
               path n max_file_bytes)
        else Ok (really_input_string ic n))
  with
  | Ok s -> parse s
  | Error _ as e -> e
  | exception Sys_error msg -> Error msg
