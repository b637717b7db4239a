(* SLO objectives as data, windowed measurements, burn-rate evaluation.

   Kept Json-free on purpose: lib/obs sits below lib/util in the
   dependency order, so everything here is plain records and floats;
   the serving layer (lib/net) renders states and window snapshots as
   strict JSON. *)

type state = Ok | Degraded of string list | Failing of string list

let state_to_int = function Ok -> 0 | Degraded _ -> 1 | Failing _ -> 2

let state_label = function
  | Ok -> "ok"
  | Degraded _ -> "degraded"
  | Failing _ -> "failing"

let state_reasons = function Ok -> [] | Degraded rs | Failing rs -> rs

let render = function
  | Ok -> "ok"
  | (Degraded rs | Failing rs) as s ->
      Printf.sprintf "%s: %s" (state_label s) (String.concat "; " rs)

(* --- objectives --- *)

type objective = { metric : string; max_value : float; fail_ratio : float }

let default_objectives =
  [
    { metric = "latency_p99_ms"; max_value = 5000.0; fail_ratio = 2.0 };
    { metric = "error_rate"; max_value = 1.0; fail_ratio = 2.0 };
    { metric = "shed_rate"; max_value = 1.0; fail_ratio = 2.0 };
    { metric = "calibration_drift"; max_value = 0.5; fail_ratio = 4.0 };
  ]

let evaluate ~objectives ~measurements =
  let degraded = ref [] and failing = ref [] in
  List.iter
    (fun o ->
      match List.assoc_opt o.metric measurements with
      | None -> ()
      | Some v ->
          if o.max_value > 0.0 then begin
            let burn = v /. o.max_value in
            if burn > 1.0 then begin
              let reason =
                Printf.sprintf "%s %.3f > budget %.3f (burn %.2f)" o.metric v
                  o.max_value burn
              in
              if burn >= o.fail_ratio then failing := reason :: !failing
              else degraded := reason :: !degraded
            end
          end)
    objectives;
  match (List.rev !failing, List.rev !degraded) with
  | [], [] -> Ok
  | [], ds -> Degraded ds
  | fs, ds -> Failing (fs @ ds)

(* --- calibration drift --- *)

let drift_min_samples = 20

let drift ~expected ~observed =
  let n = min (Array.length expected) (Array.length observed) in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.abs (expected.(i) -. observed.(i))
  done;
  0.5 *. !acc

(* --- monitor --- *)

type monitor = {
  mobjectives : objective list;
  latency : Window.t;
  errors : Window.t;
  shed : Window.t;
  confidence : Window.t;
  profile : float array option Atomic.t;
}

let create_monitor ~objectives ~bucket_ms ~nbuckets =
  let w () = Window.create ~bucket_ms ~nbuckets () in
  {
    mobjectives = objectives;
    latency = w ();
    errors = w ();
    shed = w ();
    confidence = w ();
    profile = Atomic.make None;
  }

let objectives m = m.mobjectives

let record_request m ~now_ms ~latency_ms ~status ~shed =
  Window.record m.latency ~now_ms latency_ms;
  if status >= 400 then Window.record m.errors ~now_ms 1.0;
  if shed then Window.record m.shed ~now_ms 1.0

let record_confidence m ~now_ms c = Window.record m.confidence ~now_ms c
let set_expected_profile m p = Atomic.set m.profile p
let expected_profile m = Atomic.get m.profile

let measurements m ~now_ms =
  let count w = (Window.stats w ~now_ms).Histo.n in
  let lat = Window.stats m.latency ~now_ms in
  let total = float_of_int (max 1 lat.Histo.n) in
  let base =
    [
      ("latency_p50_ms", lat.Histo.p50);
      ("latency_p99_ms", lat.Histo.p99);
      ("error_rate", float_of_int (count m.errors) /. total);
      ("shed_rate", float_of_int (count m.shed) /. total);
    ]
  in
  match Atomic.get m.profile with
  | Some expected when count m.confidence >= drift_min_samples ->
      let observed = Window.deciles m.confidence ~now_ms in
      base @ [ ("calibration_drift", drift ~expected ~observed) ]
  | _ -> base

let evaluate_monitor m ~now_ms =
  evaluate ~objectives:m.mobjectives ~measurements:(measurements m ~now_ms)

let latency_window m = m.latency
let error_window m = m.errors
let shed_window m = m.shed
let confidence_window m = m.confidence
