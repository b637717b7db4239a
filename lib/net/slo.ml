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

let ( let* ) = Result.bind

let metric =
  Json.enum
    ("one of " ^ String.concat ", " metrics)
    (fun m -> if List.mem m metrics then Some m else None)

let objective path json =
  let* metric = Json.field "metric" metric path json in
  let* max_value =
    Json.field "max" (Json.check "positive number" (fun v -> v > 0.0) Json.number) path json
  in
  let* fail_ratio =
    Json.field_opt "fail_ratio"
      (Json.check "number above 1" (fun r -> r > 1.0) Json.number)
      path json
  in
  Ok { Health.metric; max_value; fail_ratio = Option.value fail_ratio ~default:2.0 }

let parse s =
  let* json = Json.parse s in
  let decoded =
    let* window_s =
      Json.field_opt "window_s"
        (Json.check "positive number" (fun w -> w > 0.0) Json.number)
        Json.root json
    in
    let* nbuckets =
      Json.field_opt "buckets" (Json.check "positive int" (fun n -> n >= 1) Json.int)
        Json.root json
    in
    let* objectives = Json.field "objectives" (Json.list objective) Json.root json in
    Ok (Option.value window_s ~default:60.0, Option.value nbuckets ~default:12, objectives)
  in
  match decoded with
  | Error e -> Error (Json.error_to_string e)
  | Ok (_, nbuckets, _) when nbuckets > max_buckets ->
      Error (Printf.sprintf "$.buckets: %d exceeds the limit of %d" nbuckets max_buckets)
  | Ok (window_s, nbuckets, objectives) ->
      Ok { objectives; bucket_ms = window_s *. 1000.0 /. float_of_int nbuckets; nbuckets }

let load path =
  let* s = Json.read_file ~max_bytes:max_file_bytes ~what:"an SLO file" path in
  parse s
