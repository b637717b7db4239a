(* --compare PARENT CHANGE: the paired-runs rule for a performance claim,
   over two results files, each holding the untraced runs of one commit
   in the order they were made (run the two commits alternately, at
   least ten times each; run i of one file is paired with run i of the
   other).

   Per (workload, metric) that both files hold:
   - better: the change wins at least 9/10 of the pairs (ties count for
     neither side), the medians differ by more than the parent's
     interquartile range, and no more operations failed than at the
     parent;
   - for an end-to-end metric, which has a bound:
     - unresolved: fewer than 10 pairs, or the parent's own spread
       (IQR / median) is wider than the bound, unless every run of the
       change reads better than every run of the parent;
     - worse: the change's median is worse than the parent's by more
       than the bound;
     - unchanged: otherwise;
   - for a per-layer metric, which has none: worse when the parent wins
     by the rule for better, unresolved otherwise. *)

open Common
module Json = Hoiho_util.Json

type run = { workload : string; failed : int; values : (string * float) list }

let parse_line line =
  let num = function Some (Json.Float f) -> Some f | Some (Json.Int i) -> Some (float_of_int i) | _ -> None in
  match Json.parse line with
  | Error e -> harness_error "results line does not parse: %s" e
  | Ok j -> (
      match (Json.member "workload" j, Json.member "trace" j, Json.member "metrics" j) with
      | Some (Json.String workload), Some (Json.Bool trace), Some (Json.Obj ms) ->
          if trace then None
          else
            Some
              {
                workload;
                failed = (match Json.member "failed" j with Some (Json.Int n) -> n | _ -> 0);
                values =
                  List.filter_map
                    (fun (name, m) -> Option.map (fun v -> (name, v)) (num (Json.member "value" m)))
                    ms;
              }
      | _ -> harness_error "results line without workload/trace/metrics")

let load path = List.filter_map parse_line (read_lines path)

let min_pairs = 10

type verdict = Better | Worse | Unchanged | Unresolved of string

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved why -> "unresolved (" ^ why ^ ")"

let judge (d : Metrics.def) ~parent ~change ~parent_failed ~change_failed =
  let n = min (Array.length parent) (Array.length change) in
  let parent = Array.sub parent 0 n and change = Array.sub change 0 n in
  (* positive = the change is better *)
  let gain a b = match d.better with Metrics.Lower -> a -. b | Metrics.Higher -> b -. a in
  if n < min_pairs then (Unresolved (Printf.sprintf "%d pairs < %d" n min_pairs), n, 0)
  else begin
    let wins = ref 0 and losses = ref 0 in
    Array.iteri
      (fun i p ->
        let g = gain p change.(i) in
        if g > 0.0 then incr wins else if g < 0.0 then incr losses)
      parent;
    let q1, mp, q3 = quartiles parent in
    let _, mc, _ = quartiles change in
    let iqr = q3 -. q1 in
    let all_better =
      Array.for_all (fun c -> Array.for_all (fun p -> gain p c > 0.0) parent) change
    in
    let v =
      if 10 * !wins >= 9 * n && gain mp mc > iqr && change_failed <= parent_failed then Better
      else
        match d.bound with
        | None ->
            if 10 * !losses >= 9 * n && -.gain mp mc > iqr then Worse else Unresolved "no bound"
        | Some bound ->
            if iqr > bound *. Float.abs mp && not all_better then
              Unresolved
                (Printf.sprintf "parent spread %.1f%% > bound %.0f%%"
                   (100.0 *. ratio iqr (Float.abs mp))
                   (100.0 *. bound))
            else if -.gain mp mc > bound *. Float.abs mp then Worse
            else Unchanged
    in
    (v, n, !wins)
  end

let run (table : Metrics.t) parent_path change_path =
  let parent = load parent_path and change = load change_path in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) parent)
    |> List.filter (fun w -> List.exists (fun r -> r.workload = w) change)
  in
  if workloads = [] then harness_error "no workload has untraced runs in both files";
  Printf.printf "%-14s %-34s %12s %25s %12s %25s %6s  %s\n" "workload" "metric" "parent" "[q1, q3]"
    "change" "[q1, q3]" "wins" "verdict";
  List.iter
    (fun w ->
      let runs file = List.filter (fun r -> r.workload = w) file in
      let pr = runs parent and cr = runs change in
      let failed rs = List.fold_left (fun k r -> k + r.failed) 0 rs in
      List.iter
        (fun (d : Metrics.def) ->
          let values rs = Array.of_list (List.filter_map (fun r -> List.assoc_opt d.name r.values) rs) in
          let pv = values pr and cv = values cr in
          if Array.length pv > 0 && Array.length cv > 0 then begin
            let v, n, wins =
              judge d ~parent:pv ~change:cv ~parent_failed:(failed pr) ~change_failed:(failed cr)
            in
            let show a =
              let q1, m, q3 = quartiles a in
              (Printf.sprintf "%.6g" m, Printf.sprintf "[%.6g, %.6g]" q1 q3)
            in
            let pm, pq = show pv and cm, cq = show cv in
            Printf.printf "%-14s %-34s %12s %25s %12s %25s %6s  %s\n" w d.name pm pq cm cq
              (Printf.sprintf "%d/%d" wins n) (verdict_name v)
          end)
        (table.end_to_end @ table.per_layer))
    workloads
