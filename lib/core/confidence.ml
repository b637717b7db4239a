module City = Hoiho_geodb.City
module Router = Hoiho_itdk.Router

type suffix_stats = {
  tp : int;
  fp : int;
  fn : int;
  unk : int;
  rtt_agreement : float;
}

let no_stats = { tp = 0; fp = 0; fn = 0; unk = 0; rtt_agreement = 1.0 }

(* Agreement between the two RTT channels over the NC's TP hits: a TP
   location was consistent under the preferred channel (ping when
   present); count how often the traceroute channel, where it also
   measured the router, admits the same location. Routers with a single
   channel have nothing to disagree about and are left out; no
   dual-channel TP at all means full agreement by convention. *)
let stats_of_nc consist (nc : Ncsel.t) =
  let both = ref 0 and agree = ref 0 in
  List.iter
    (fun (h : Evalx.hit) ->
      match (h.Evalx.outcome, h.Evalx.location) with
      | Evalx.TP, Some city ->
          let r = h.Evalx.sample.Apparent.router in
          if
            not
              (Hoiho_itdk.Rtts.is_empty r.Router.ping_rtts
              || Hoiho_itdk.Rtts.is_empty r.Router.trace_rtts)
          then begin
            incr both;
            if
              Consist.channel_consistent consist r Consist.Trace
                city.City.coord
            then incr agree
          end
      | _ -> ())
    nc.Ncsel.hits;
  let c = nc.Ncsel.counts in
  {
    tp = c.Evalx.tp;
    fp = c.Evalx.fp;
    fn = c.Evalx.fn;
    unk = c.Evalx.unk;
    rtt_agreement =
      (if !both = 0 then 1.0 else float_of_int !agree /. float_of_int !both);
  }

type signals = {
  stats : suffix_stats;
  collisions : int;
  provenance : Evalx.provenance;
  overlay : Learned.entry option;
}

let none = 0.0

let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

(* Laplace-smoothed precision: (tp+1)/(tp+fp+2). Never 0 or 1 on finite
   evidence, and defined at tp = fp = 0 (the 0.5 prior). *)
let smoothed_ppv tp fp =
  float_of_int (tp + 1) /. float_of_int (tp + fp + 2)

(* shrink toward the 0.5 prior by evidence volume: with n = tp+fp
   observations the smoothed PPV only moves the score by n/(n+k) of its
   distance from 0.5 — a 4-sample convention cannot claim 0.95 *)
let support_k = 8.0

let shrunk_ppv tp fp =
  let n = float_of_int (tp + fp) in
  0.5 +. (n /. (n +. support_k)) *. (smoothed_ppv tp fp -. 0.5)

(* full cross-channel disagreement costs 15 points, not everything:
   the trace channel is the looser one (figure 5), so its veto is
   evidence of trouble, not proof *)
let agreement_factor a = 0.85 +. (0.15 *. clamp01 a)

(* each collision loser dilutes the claim: the answer is the
   population-ranked head of a contested lookup, not a unique match *)
let collision_factor losers =
  1.0 /. (1.0 +. (0.25 *. float_of_int (max 0 losers)))

(* A learned-overlay answer carries its own per-hint evidence, but its
   hits already shaped the suffix-level PPV — multiplying a second
   absolute precision in would double-count the penalty (measured: it
   pinned clean small-support hints near 0.55 while they ran ~100%
   correct). So the factor is the hint's purity RELATIVE to a clean
   record of the same size: fp-free hints cost nothing, impure ones pay
   the smoothed ratio. A hint that also exists in the reference
   dictionary was overridden on RTT evidence and keeps a flat haircut
   for the ambiguity. *)
let overlay_factor = function
  | None -> 1.0
  | Some (e : Learned.entry) ->
      smoothed_ppv e.Learned.tp e.Learned.fp
      /. smoothed_ppv (e.Learned.tp + e.Learned.fp) 0
      *. if e.Learned.collides then 0.9 else 1.0

let score s =
  clamp01
    (shrunk_ppv s.stats.tp s.stats.fp
    *. agreement_factor s.stats.rtt_agreement
    *. collision_factor s.collisions
    *. overlay_factor s.overlay)

(* The expected confidence-decile profile of a model: what distribution
   of per-answer confidences this model should produce on traffic shaped
   like its training corpus. Per suffix, the tp+fp answered-positive
   mass sits at the suffix's typical positive score (support × agreement
   — the collision/overlay factors are per-answer and average near 1),
   and the fn+unk mass sits at 0.0, the uniform confidence of a negative
   answer. Pure arithmetic over the stats in list order, so a batch
   learn and an incremental relearn that produce byte-identical suffix
   lists produce bit-identical profiles (the Delta equivalence
   contract). Deciles follow Hoiho_obs.Histo.decile, the rule the
   daemon's drift monitor buckets served confidences by. *)
let expected_profile stats_list =
  let masses = Array.make 10 0.0 in
  let total = ref 0.0 in
  List.iter
    (fun s ->
      let pos = float_of_int (s.tp + s.fp) in
      let neg = float_of_int (s.fn + s.unk) in
      if pos > 0.0 then begin
        let c = clamp01 (shrunk_ppv s.tp s.fp *. agreement_factor s.rtt_agreement) in
        let i = Hoiho_obs.Histo.decile c in
        masses.(i) <- masses.(i) +. pos
      end;
      if neg > 0.0 then masses.(0) <- masses.(0) +. neg;
      total := !total +. pos +. neg)
    stats_list;
  if !total <= 0.0 then begin
    (* an evidence-free model can only answer negatives *)
    masses.(0) <- 1.0;
    masses
  end
  else Array.map (fun m -> m /. !total) masses

let of_resolution ~stats ~learned (ex : Plan.extraction) (cities, provenance) =
  match cities with
  | [] -> none
  | _best :: losers ->
      let overlay =
        match provenance with
        | Evalx.Overlay -> Learned.find learned ex.Plan.hint_type ex.Plan.hint
        | Evalx.Dictionary -> None
      in
      score
        { stats; collisions = List.length losers; provenance; overlay }

let describe_loser ~(best : City.t) (loser : City.t) =
  Printf.sprintf "%s (support %d, -%d vs winner)" (City.describe loser)
    loser.City.population
    (best.City.population - loser.City.population)
