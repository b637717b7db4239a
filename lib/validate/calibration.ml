module Json = Hoiho_util.Json

type sample = { confidence : float; correct : bool }

type bucket = {
  lo : float;
  hi : float;
  n : int;
  mean_confidence : float;
  accuracy : float;
}

type report = {
  total : int;
  answered : int;
  brier : float;
  ece : float;
  buckets : bucket list;
}

let n_buckets = 10

let of_samples ?answered samples =
  let total = List.length samples in
  let answered = Option.value answered ~default:total in
  let counts = Array.make n_buckets 0 in
  let conf_sums = Array.make n_buckets 0.0 in
  let correct_counts = Array.make n_buckets 0 in
  let brier_sum =
    List.fold_left
      (fun acc s ->
        (* the one decile rule the drift monitor also buckets by;
           it clamps, so a stray out-of-range float cannot raise *)
        let i = Hoiho_obs.Histo.decile s.confidence in
        counts.(i) <- counts.(i) + 1;
        conf_sums.(i) <- conf_sums.(i) +. s.confidence;
        if s.correct then correct_counts.(i) <- correct_counts.(i) + 1;
        let outcome = if s.correct then 1.0 else 0.0 in
        acc +. ((s.confidence -. outcome) ** 2.0))
      0.0 samples
  in
  let buckets =
    List.init n_buckets (fun i ->
        let n = counts.(i) in
        let fn = float_of_int n in
        {
          lo = float_of_int i /. float_of_int n_buckets;
          hi = float_of_int (i + 1) /. float_of_int n_buckets;
          n;
          mean_confidence = (if n = 0 then 0.0 else conf_sums.(i) /. fn);
          accuracy =
            (if n = 0 then 0.0 else float_of_int correct_counts.(i) /. fn);
        })
  in
  let ece =
    if total = 0 then 0.0
    else
      List.fold_left
        (fun acc b ->
          acc
          +. float_of_int b.n /. float_of_int total
             *. Float.abs (b.accuracy -. b.mean_confidence))
        0.0 buckets
  in
  {
    total;
    answered;
    brier = (if total = 0 then 0.0 else brier_sum /. float_of_int total);
    ece;
    buckets;
  }

let of_pipeline (pipeline : Hoiho.Pipeline.t) truth ~suffixes =
  let answered = ref 0 in
  let samples =
    List.concat_map
      (fun suffix ->
        Validate.ground_truth_hostnames pipeline.Hoiho.Pipeline.dataset truth ~suffix
        |> List.map (fun (gt : Validate.gt_hostname) ->
               match Hoiho.Pipeline.geolocate_conf pipeline gt.Validate.hostname with
               | Some city, confidence ->
                   incr answered;
                   {
                     confidence;
                     correct = Validate.correct city gt.Validate.true_coord;
                   }
               (* an abstention IS a zero-confidence prediction: leaving
                  these out would flatter the low deciles *)
               | None, _ -> { confidence = 0.0; correct = false }))
      suffixes
  in
  of_samples ~answered:!answered samples

let monotone ?(tolerance = 0.05) report =
  let nonempty = List.filter (fun b -> b.n > 0) report.buckets in
  let rec check = function
    | a :: (b :: _ as rest) ->
        b.accuracy >= a.accuracy -. tolerance && check rest
    | _ -> true
  in
  check nonempty

let to_json report =
  Json.Obj
    [
      ("total", Json.Int report.total);
      ("answered", Json.Int report.answered);
      ("brier", Json.Float report.brier);
      ("ece", Json.Float report.ece);
      ("monotone", Json.Bool (monotone report));
      ( "buckets",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("lo", Json.Float b.lo);
                   ("hi", Json.Float b.hi);
                   ("n", Json.Int b.n);
                   ("mean_confidence", Json.Float b.mean_confidence);
                   ("accuracy", Json.Float b.accuracy);
                 ])
             report.buckets) );
    ]

let render_text report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "calibration: %d ground-truth hostnames, %d answered (%d abstained)\n"
       report.total report.answered
       (report.total - report.answered));
  Buffer.add_string buf
    (Printf.sprintf "%-12s %6s  %10s  %8s\n" "decile" "n" "mean-conf"
       "accuracy");
  List.iter
    (fun b ->
      if b.n > 0 then
        Buffer.add_string buf
          (Printf.sprintf "[%.1f,%.1f%c %6d  %10.3f  %8.3f\n" b.lo b.hi
             (if b.hi >= 1.0 then ']' else ')')
             b.n b.mean_confidence b.accuracy))
    report.buckets;
  Buffer.add_string buf
    (Printf.sprintf "Brier %.4f  ECE %.4f  monotone(tol 0.05) %b\n"
       report.brier report.ece (monotone report));
  Buffer.contents buf
