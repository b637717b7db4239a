(** Runtime health: SLO objectives as data, a windowed monitor, and a
    pure evaluator producing a typed state (DESIGN.md §14).

    The evaluator is burn-rate shaped: each objective declares a budget
    ([max_value]) for one windowed metric, and the burn is the measured
    value over the budget. Burn ≤ 1 is inside budget; 1 < burn <
    [fail_ratio] is {e Degraded} (budget exceeded, not yet an
    emergency); burn ≥ [fail_ratio] is {e Failing} (the state load
    balancers act on — [/healthz] returns 503). The state carries the
    reasons verbatim so operators see {e which} objectives burned.

    Everything here is clock-injected and pure given the window
    contents: [evaluate] is a function of (objectives, measurements),
    and measurements come from {!Window} snapshots at an explicit
    [~now_ms] — tests replay the whole state machine deterministically. *)

type state = Ok | Degraded of string list | Failing of string list

val state_to_int : state -> int
(** [Ok] → 0, [Degraded] → 1, [Failing] → 2 — the [health.state]
    gauge encoding. *)

val state_label : state -> string
(** ["ok"] / ["degraded"] / ["failing"]. *)

val state_reasons : state -> string list

val render : state -> string
(** Human-readable one-liner: ["ok"], ["degraded: <r>; <r>"],
    ["failing: <r>; <r>"] — the [/healthz] body (with trailing
    newline added by the server). *)

(** {1 Objectives} *)

type objective = {
  metric : string;
      (** which measurement this budgets: ["latency_p99_ms"],
          ["error_rate"], ["shed_rate"], ["calibration_drift"] *)
  max_value : float;  (** the budget; must be positive *)
  fail_ratio : float;
      (** burn (value / max_value) at or above which the objective is
          failing rather than merely degraded; must be > 1 *)
}

val default_objectives : objective list
(** Deliberately generous: p99 ≤ 5000 ms, error rate ≤ 1.0, shed rate
    ≤ 1.0, drift ≤ 0.5 with fail at 4×. A daemon run without [--slo]
    only alarms in extremis; operators declare real budgets in an SLO
    file. *)

val evaluate :
  objectives:objective list -> measurements:(string * float) list -> state
(** Pure: fold every objective over the measurement alist. An
    objective whose metric has no measurement is skipped (not a
    failure — e.g. drift before any confidence is served). Reasons
    name the metric, measured value, budget, and burn. *)

(** {1 Monitor} — the windows a serving daemon feeds. *)

type monitor

val create_monitor :
  objectives:objective list -> bucket_ms:float -> nbuckets:int -> monitor
(** A monitor whose windows span [nbuckets] buckets of [bucket_ms]
    ([Hoiho_net.Slo.default] holds the daemon's defaults). Four windows
    of [nbuckets + 1] {!Histo}s (about 4 KB each): a ring slot costs
    about 16 KB, whatever the traffic. *)

val objectives : monitor -> objective list

val record_request :
  monitor -> now_ms:float -> latency_ms:float -> status:int -> shed:bool -> unit
(** One served HTTP request: latency into the latency window; status ≥
    400 also into the error window; [shed] also into the shed window. *)

val record_confidence : monitor -> now_ms:float -> float -> unit
(** One served answer's confidence, for the drift comparison. *)

val set_expected_profile : monitor -> float array option -> unit
(** The model snapshot's expected confidence decile profile (10 masses
    summing to ~1), stored at save-model time. [None] disables the
    drift measurement. Swapped on hot reload. *)

val expected_profile : monitor -> float array option

val measurements : monitor -> now_ms:float -> (string * float) list
(** The windowed measurement alist the evaluator consumes:
    [latency_p50_ms], [latency_p99_ms], [error_rate], [shed_rate],
    and — when an expected profile is set and at least
    [drift_min_samples] confidences are in-window —
    [calibration_drift]. Rates are per-request over the latency
    window's count. All come from merged window histograms: counts
    are exact, percentiles within {!Histo.stats}' 1/16, and the
    observed deciles ({!Window.deciles}) exact. *)

val evaluate_monitor : monitor -> now_ms:float -> state
(** [evaluate ~objectives ~measurements] at [now_ms]. *)

val latency_window : monitor -> Window.t
val error_window : monitor -> Window.t
val shed_window : monitor -> Window.t
val confidence_window : monitor -> Window.t

(** {1 Calibration drift} *)

val drift : expected:float array -> observed:float array -> float
(** Total-variation distance [0.5 * Σ |e_i − o_i|] between two decile
    mass vectors — 0 when identical, 1 when disjoint. *)

val drift_min_samples : int
(** In-window confidence count below which drift is not measured (too
    few samples to call a distribution shifted). *)
