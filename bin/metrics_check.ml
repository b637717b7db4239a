(* CI smoke assertion: a metrics snapshot written by `hoiho learn
   --metrics` must parse under the repo's own strict JSON parser and be
   non-empty — a nonzero rx.exec_calls counter, per-stage duration
   histograms with samples, and pool counters present. Exits nonzero
   with a diagnostic otherwise. *)

module Json = Hoiho_util.Json

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "metrics.json" in
  let doc =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error e ->
        Printf.eprintf "metrics check failed: %s does not parse as JSON: %s\n" path e;
        exit 1
  in
  let section name =
    match Json.member name doc with Some (Json.Obj fields) -> fields | _ -> []
  in
  let counter name =
    match List.assoc_opt name (section "counters") with
    | Some (Json.Int n) -> Some n
    | _ -> None
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match counter "rx.exec_calls" with
  | Some n when n > 0 -> ()
  | Some n -> fail "rx.exec_calls is %d, expected > 0" n
  | None -> fail "rx.exec_calls counter missing");
  (match counter "pipeline.suffix_groups" with
  | Some n when n > 0 -> ()
  | _ -> fail "pipeline.suffix_groups counter missing or zero");
  List.iter
    (fun name -> if counter name = None then fail "%s counter missing" name)
    [ "ncsel.candidates_evaluated"; "pool.jobs_submitted"; "rx.backtrack_attempts" ];
  let summaries = List.map snd (section "histograms") in
  let summarized key = List.exists (fun h -> Json.member key h <> None) summaries in
  (* every run times at least the whole-run span and one suffix group *)
  if not (summarized "count") then fail "no histogram samples recorded";
  (* histogram summaries carry the tail quantile since the health work *)
  if not (summarized "p99_ms") then fail "histogram summaries lack p99_ms";
  match !failures with
  | [] -> Printf.printf "metrics snapshot %s ok\n" path
  | fs ->
      List.iter (Printf.eprintf "metrics check failed: %s\n") (List.rev fs);
      exit 1
