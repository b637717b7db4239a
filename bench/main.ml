(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (§6) on synthetic datasets, printing measured values next
   to the paper's, plus the `perf` gates (cross-jobs identity,
   calibration, incremental relearn, tracing and monitoring overhead).
   Performance figures come from bench/perf/run.sh, not from here.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --list       -- list experiment ids
     dune exec bench/main.exe -- -e fig9      -- run one experiment
     dune exec bench/main.exe -- --quick      -- small datasets (CI) *)

module Generate = Hoiho_netsim.Generate
module Presets = Hoiho_netsim.Presets
module Truth = Hoiho_netsim.Truth
module Oper = Hoiho_netsim.Oper
module Dataset = Hoiho_itdk.Dataset
module Router = Hoiho_itdk.Router
module Pipeline = Hoiho.Pipeline
module Ncsel = Hoiho.Ncsel
module Evalx = Hoiho.Evalx
module Plan = Hoiho.Plan
module Cand = Hoiho.Cand
module Learned = Hoiho.Learned
module City = Hoiho_geodb.City
module Validate = Hoiho_validate.Validate
module Analysis = Hoiho_validate.Analysis
module Stat = Hoiho_util.Stat

(* --- shared, lazily computed state --- *)

type run = { ds : Dataset.t; truth : Truth.t; pipeline : Pipeline.t Lazy.t }

let quick = ref false
let runs : (string, run) Hashtbl.t = Hashtbl.create 4

let presets () =
  if !quick then
    [ ("Aug '20 IPv4", Presets.tiny ~seed:20200801 ());
      ("Mar '21 IPv4", Presets.tiny ~seed:20210301 ());
      ("Nov '20 IPv6", Presets.tiny ~seed:20201101 ());
      ("Mar '21 IPv6", Presets.tiny ~seed:20210302 ()) ]
  else
    List.map (fun (c : Generate.config) -> (c.Generate.label, c)) (Presets.all ())

let run_for label =
  match Hashtbl.find_opt runs label with
  | Some r -> (r.ds, r.truth, Lazy.force r.pipeline)
  | None ->
      let config = List.assoc label (presets ()) in
      let config = { config with Generate.label } in
      let ds, truth = Generate.generate config in
      let r = { ds; truth; pipeline = lazy (Pipeline.run ~db:(Truth.db truth) ds) } in
      Hashtbl.replace runs label r;
      (ds, truth, Lazy.force r.pipeline)

let dataset_for label =
  match Hashtbl.find_opt runs label with
  | Some r -> r.ds
  | None ->
      let ds, _, _ = run_for label in
      ds

let aug20 = "Aug '20 IPv4"
let all_labels = [ "Aug '20 IPv4"; "Mar '21 IPv4"; "Nov '20 IPv6"; "Mar '21 IPv6" ]

(* --- table 1 --- *)

let table1 () =
  Report.section "Table 1: summary of ITDKs";
  let rows =
    List.map
      (fun label ->
        let ds = dataset_for label in
        let n = Dataset.n_routers ds in
        [
          label;
          string_of_int n;
          Report.fmt_count_pct (Dataset.n_with_hostname ds) n;
          Report.fmt_count_pct (Dataset.n_responsive ds) n;
          string_of_int (Array.length ds.Dataset.vps);
        ])
      all_labels
  in
  Report.table
    ~header:[ "dataset"; "routers"; "w/ hostnames"; "w/ RTT"; "VPs" ]
    rows;
  Report.note "paper: 2.56M/2.57M IPv4 and 559K/525K IPv6 routers; hostnames";
  Report.note "55.0/54.1/15.1/16.0%%; RTT 81.9/81.7/47.3/45.2%%; VPs 106/100/46/39.";
  Report.note "(synthetic datasets are ~1/40 of the paper's scale; the";
  Report.note "percentages are the comparable quantity)"

(* --- figure 5 --- *)

let fig5 () =
  Report.section "Figure 5: ping vs traceroute RTT measurements";
  let ds = dataset_for aug20 in
  Report.subsection "(a) CDF of min RTT per router: ping vs traceroute";
  Report.table
    ~header:[ "<= ms"; "ping CDF"; "traceroute CDF" ]
    (List.map
       (fun (th, ping, trace) ->
         [ Printf.sprintf "%.0f" th; Printf.sprintf "%.3f" ping; Printf.sprintf "%.3f" trace ])
       (Analysis.fig5a ds));
  let pings, traces =
    Array.to_list ds.Dataset.routers
    |> List.filter_map (fun (r : Router.t) ->
           match (Router.min_ping_rtt r, Router.min_trace_rtt r) with
           | Some (_, p), Some (_, t) -> Some (p, t)
           | _ -> None)
    |> List.split
  in
  let mp = Stat.median pings and mt = Stat.median traces in
  Report.paper_vs "median min ping RTT" "16 ms" (Printf.sprintf "%.0f ms" mp);
  Report.paper_vs "median min traceroute RTT" "68 ms" (Printf.sprintf "%.0f ms" mt);
  Report.paper_vs "traceroute / ping ratio" "4.25x" (Printf.sprintf "%.2fx" (mt /. mp));
  Report.subsection "(b) CDF of number of VPs observing each router";
  Report.table
    ~header:[ "<= k VPs"; "traceroute CDF"; "ping CDF" ]
    (List.map
       (fun (k, trace, ping) ->
         [ string_of_int k; Printf.sprintf "%.3f" trace; Printf.sprintf "%.3f" ping ])
       (Analysis.fig5b ds));
  let one_vp =
    Stat.fraction
      (fun (r : Router.t) -> Hoiho_itdk.Rtts.length r.Router.trace_rtts = 1)
      (Array.to_list ds.Dataset.routers
      |> List.filter (fun (r : Router.t) -> not (Hoiho_itdk.Rtts.is_empty r.Router.ping_rtts)))
  in
  Report.paper_vs "routers seen by 1 VP in traceroute" "35.8%"
    (Printf.sprintf "%.1f%%" (100.0 *. one_vp))

(* --- table 2 --- *)

let table2 () =
  Report.section "Table 2: coverage of usable naming conventions";
  let rows =
    List.map
      (fun label ->
        let _, _, p = run_for label in
        let c = Analysis.coverage p in
        [
          label;
          string_of_int c.Analysis.total;
          Report.fmt_count_pct c.Analysis.with_hostname c.Analysis.total;
          Report.fmt_count_pct c.Analysis.with_apparent c.Analysis.total;
          Report.fmt_count_pct c.Analysis.geolocated c.Analysis.total;
        ])
      all_labels
  in
  Report.table
    ~header:[ "dataset"; "total"; "with hostname"; "w/ apparent geohint"; "geolocated" ]
    rows;
  Report.note "paper (Aug '20 IPv4): hostname 55.0%%, apparent 8.8%%, geolocated 7.6%%;";
  Report.note "paper (Nov '20 IPv6): hostname 15.1%%, apparent 5.3%%, geolocated 4.7%%."

(* --- table 3 --- *)

let table3 () =
  Report.section "Table 3: classification of naming conventions";
  let rows =
    List.map
      (fun label ->
        let _, _, p = run_for label in
        let k = Analysis.classifications p in
        let total = k.Analysis.good + k.Analysis.promising + k.Analysis.poor in
        [
          label;
          Report.fmt_count_pct k.Analysis.good total;
          Report.fmt_count_pct k.Analysis.promising total;
          Report.fmt_count_pct k.Analysis.poor total;
          string_of_int total;
        ])
      all_labels
  in
  Report.table ~header:[ "dataset"; "good"; "promising"; "poor"; "total" ] rows;
  Report.note "paper (Aug '20 IPv4): good 43.6%%, promising 6.1%%, poor 50.4%% of 1825;";
  Report.note "paper (Nov '20 IPv6): good 56.4%%, promising 4.9%%, poor 38.7%% of 346."

(* --- table 4 --- *)

let annot_name = function
  | Analysis.A_none -> "none"
  | Analysis.A_state -> "state"
  | Analysis.A_country -> "country"
  | Analysis.A_both -> "both"

let table4 () =
  Report.section "Table 4: geohint types and state/country annotations (usable NCs)";
  let _, _, p = run_for aug20 in
  let rows, mixed = Analysis.table4 p in
  let order (r : Analysis.type_breakdown) =
    ( (match r.Analysis.hint_type with
      | Plan.Iata -> 0 | Plan.CityName -> 1 | Plan.Clli -> 2
      | Plan.Locode -> 3 | Plan.FacilityAddr -> 4 | Plan.Icao -> 5),
      annot_name r.Analysis.annot )
  in
  let sorted = List.sort (fun a b -> compare (order a) (order b)) rows in
  Report.table
    ~header:[ "geohint"; "annotation"; "good"; "promising" ]
    (List.map
       (fun (r : Analysis.type_breakdown) ->
         [
           Plan.hint_type_name r.Analysis.hint_type;
           annot_name r.Analysis.annot;
           string_of_int r.Analysis.n_good;
           string_of_int r.Analysis.n_promising;
         ])
       sorted);
  Report.note "NCs mixing geohint types: %d (paper: 31 of 795 good NCs)" mixed;
  Report.note "paper (good NCs): IATA 51.7%% (23.6%% with state/country), city 38.9%%,";
  Report.note "CLLI 12.1%%, LOCODE 1.3%%, facility 0.3%%."

(* --- figure 9 --- *)

let fig9 () =
  Report.section "Figure 9: router geolocation, Hoiho vs HLOC vs DRoP vs undns";
  let _, truth, p = run_for aug20 in
  let suffixes = Oper.validation_suffixes in
  let cmps = Validate.compare_methods p truth ~suffixes in
  let cell (s : Validate.scores) =
    Printf.sprintf "%3.0f/%3.0f/%3.0f" (Validate.tp_pct s) (Validate.fp_pct s)
      (Validate.fn_pct s)
  in
  Report.table
    ~header:[ "suffix"; "n"; "hoiho tp/fp/fn%"; "hloc"; "drop"; "undns" ]
    (List.map
       (fun (c : Validate.comparison) ->
         [ c.Validate.suffix; string_of_int c.Validate.n; cell c.Validate.hoiho;
           cell c.Validate.hloc; cell c.Validate.drop; cell c.Validate.undns ])
       cmps);
  let mean get =
    List.fold_left (fun a c -> a +. Validate.tp_pct (get c)) 0.0 cmps
    /. float_of_int (List.length cmps)
  in
  Report.paper_vs "hoiho average correct" "94.0%"
    (Printf.sprintf "%.1f%%" (mean (fun (c : Validate.comparison) -> c.Validate.hoiho)));
  Report.paper_vs "hloc average correct" "73.1%"
    (Printf.sprintf "%.1f%%" (mean (fun (c : Validate.comparison) -> c.Validate.hloc)));
  Report.paper_vs "drop average correct" "56.6%"
    (Printf.sprintf "%.1f%%" (mean (fun (c : Validate.comparison) -> c.Validate.drop)));
  let agg get =
    List.fold_left
      (fun (tp, fp) (c : Validate.comparison) ->
        let s = get c in
        (tp + s.Validate.tp, fp + s.Validate.fp))
      (0, 0) cmps
  in
  let ppv (tp, fp) = Report.pct tp (tp + fp) in
  Report.paper_vs "PPV undns" "98.3%"
    (Printf.sprintf "%.1f%%" (ppv (agg (fun c -> c.Validate.undns))));
  Report.paper_vs "PPV hoiho" "95.6%"
    (Printf.sprintf "%.1f%%" (ppv (agg (fun c -> c.Validate.hoiho))));
  Report.paper_vs "PPV drop" "87.2%"
    (Printf.sprintf "%.1f%%" (ppv (agg (fun c -> c.Validate.drop))));
  Report.paper_vs "PPV hloc" "85.1%"
    (Printf.sprintf "%.1f%%" (ppv (agg (fun c -> c.Validate.hloc))))

(* --- table 5 --- *)

let table5 () =
  Report.section "Table 5: most frequently learned three-letter geohints";
  let _, _, p = run_for aug20 in
  let rows = Analysis.table5 ~top:8 p in
  Report.table
    ~header:[ "hint"; "#sfx"; "location"; "iata?"; "alternatives" ]
    (List.map
       (fun (r : Analysis.learned_freq) ->
         [
           r.Analysis.hint;
           string_of_int r.Analysis.n_suffixes;
           City.describe r.Analysis.city;
           (if r.Analysis.in_iata_dict then "(x)" else "");
           String.concat ", "
             (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) r.Analysis.alternatives);
         ])
       rows);
  Report.note "paper: ash:12 (Ashburn), tor:10 (Toronto), wdc:9 (Washington),";
  Report.note "tok:8 (Tokyo), zur:8 (Zurich), ldn:7 (London); 4 of 6 collide with";
  Report.note "IATA codes ((x) marks a collision)."

(* --- table 6 --- *)

let table6 () =
  Report.section "Table 6: validation of learned geohints per suffix";
  let _, truth, p = run_for aug20 in
  let suffixes = Oper.validation_suffixes in
  let checks = Validate.check_learned p truth ~suffixes in
  let rows =
    List.filter_map
      (fun suffix ->
        let of_suffix =
          List.filter
            (fun (c : Validate.learned_check) -> c.Validate.suffix = suffix)
            checks
        in
        if of_suffix = [] then None
        else begin
          let ok =
            List.length
              (List.filter (fun (c : Validate.learned_check) -> c.Validate.ok) of_suffix)
          in
          let n = List.length of_suffix in
          Some [ suffix; Printf.sprintf "%d/%d" ok n; Report.fmt_pct ok n ]
        end)
      suffixes
  in
  Report.table ~header:[ "suffix"; "verified"; "fraction" ] rows;
  let ok =
    List.length (List.filter (fun (c : Validate.learned_check) -> c.Validate.ok) checks)
  in
  let n = List.length checks in
  Report.paper_vs "overall verified learned geohints" "92/117 (78.6%)"
    (Printf.sprintf "%d/%d (%s)" ok n (Report.fmt_pct ok n));
  List.iter
    (fun (c : Validate.learned_check) ->
      if not c.Validate.ok then
        Report.note "  wrong: %s %S learned as %s (operator meant %s)" c.Validate.suffix
          c.Validate.hint
          (City.describe c.Validate.learned_city)
          (Option.value c.Validate.true_city_key ~default:"<not a geohint>"))
    checks

(* --- figure 10 --- *)

let fig10 () =
  Report.section "Figure 10: properties of learned geohints";
  let _, _, p = run_for aug20 in
  let prox = Analysis.fig10a p in
  let frac_within ms = Stat.fraction (fun x -> x <= ms) prox in
  Report.subsection "(a) best-case RTT from the closest VP to learned locations";
  Report.table
    ~header:[ "<= ms"; "CDF" ]
    (List.map
       (fun th -> [ Printf.sprintf "%.0f" th; Printf.sprintf "%.3f" (frac_within th) ])
       [ 2.; 5.; 10.; 22.; 50. ]);
  Report.paper_vs "learned hints within 10 ms of a VP" "48.6%"
    (Printf.sprintf "%.1f%%" (100.0 *. frac_within 10.0));
  Report.paper_vs "learned hints within 22 ms of a VP" "80%"
    (Printf.sprintf "%.1f%%" (100.0 *. frac_within 22.0));
  Report.subsection "(b) distance from learned location to same-code airport";
  let dists = Analysis.fig10b p in
  if dists = [] then Report.note "no learned hints collide with airport codes in this run"
  else begin
    let far = Stat.fraction (fun d -> d > 1000.0) dists in
    Report.paper_vs "collisions >1000 km from the airport" "93.5%"
      (Printf.sprintf "%.1f%%" (100.0 *. far));
    Report.paper_vs "median distance to same-code airport" ">=7600 km"
      (Printf.sprintf "%.0f km" (Stat.median dists))
  end

(* --- figure 11 --- *)

let fig11 () =
  Report.section "Figure 11: learned-geohint correctness vs VP proximity";
  let _, truth, p = run_for aug20 in
  let entries = Analysis.fig11 p truth ~suffixes:Oper.validation_suffixes in
  Report.table
    ~header:[ "closest VP <= ms"; "n"; "correct" ]
    (List.map
       (fun th ->
         let within = List.filter (fun (x, _) -> x <= th) entries in
         [
           Printf.sprintf "%.0f" th;
           string_of_int (List.length within);
           Printf.sprintf "%.0f%%" (100.0 *. Analysis.accuracy_at th entries);
         ])
       [ 7.; 11.; 16.; 50. ]);
  Report.note "paper: 90%% correct at <=7 ms, 84%% at <=11 ms, 80%% at <=16 ms;";
  Report.note "closer VPs produce more reliable learned geohints."

(* --- ablation --- *)

let ablation () =
  Report.section "Ablation: value of learning operator geohints (stage 4)";
  let ds, truth, _ = run_for aug20 in
  let a = Analysis.ablation ds truth ~suffixes:Oper.validation_suffixes in
  let line (s : Validate.scores) =
    Printf.sprintf "correct %.1f%%  PPV %.1f%%" (Validate.tp_pct s)
      (100.0 *. Validate.ppv s)
  in
  Report.paper_vs "with learned geohints" "94.0% / 95.6%" (line a.Analysis.with_learning);
  Report.paper_vs "without learned geohints" "82.4% / 94.5%"
    (line a.Analysis.without_learning)

(* --- CBG feasibility (Cai 2015) --- *)

let cai () =
  Report.section "Cai 2015: fraction of inferred locations outside CBG bounds";
  let _, _, p = run_for aug20 in
  let f = Analysis.cai_feasibility p in
  Report.paper_vs "DRoP locations outside feasible region" "46%"
    (Printf.sprintf "%.1f%% (of %d)" (100.0 *. f.Analysis.drop_infeasible) f.Analysis.n_drop);
  Report.paper_vs "Hoiho locations outside feasible region" "(small)"
    (Printf.sprintf "%.1f%% (of %d)" (100.0 *. f.Analysis.hoiho_infeasible) f.Analysis.n_hoiho);
  Report.note "DRoP interprets dictionaries verbatim, so repurposed codes";
  Report.note "(\"ash\" meaning Ashburn) decode to places the speed of light rules out."

(* --- stale-hostname detection (section 7) --- *)

let stale () =
  Report.section "Stale-hostname detection (section 7, Zhang 2006 mitigation)";
  let _, truth, p = run_for aug20 in
  let a = Analysis.stale_accuracy p truth in
  Report.note "flagged %d hostnames as stale across all usable NCs" a.Hoiho.Stale.flagged;
  Report.note "truly stale among flagged: %d (precision %.1f%%)" a.Hoiho.Stale.true_stale
    (100.0 *. Hoiho.Stale.precision a);
  Report.note "stale hostnames present: %d (recall %.1f%%)" a.Hoiho.Stale.actual_stale
    (100.0 *. Hoiho.Stale.recall a);
  Report.note "(the paper cites Zhang 2006: ~0.5%% of a large network's";
  Report.note "hostnames carried incorrect geohints)"

(* --- ASN conventions (platform capability, section 3.4) --- *)

let asn () =
  Report.section "ASN-extraction conventions (the Hoiho platform, section 3.4)";
  let ds, truth, _ = run_for aug20 in
  let groups = Dataset.by_suffix ds in
  let learned =
    List.filter_map
      (fun (suffix, routers) ->
        let samples = Hoiho.Asnconv.samples_of_routers routers ~suffix in
        match Hoiho.Asnconv.learn ~suffix samples with
        | Some t when Hoiho.Asnconv.usable t -> Some (suffix, t)
        | _ -> None)
      groups
  in
  Report.note "usable ASN conventions learned for %d suffixes" (List.length learned);
  let tp, fp, fn =
    List.fold_left
      (fun (tp, fp, fn) (_, (t : Hoiho.Asnconv.t)) ->
        ( tp + t.Hoiho.Asnconv.counts.Hoiho.Asnconv.tp,
          fp + t.Hoiho.Asnconv.counts.Hoiho.Asnconv.fp,
          fn + t.Hoiho.Asnconv.counts.Hoiho.Asnconv.fn ))
      (0, 0, 0) learned
  in
  Report.note "hostnames with ASN extracted correctly: %d (fp %d, fn %d)" tp fp fn;
  (match learned with
  | (suffix, t) :: _ ->
      Report.note "e.g. %s: %s" suffix t.Hoiho.Asnconv.source;
      (match Truth.find truth suffix with
      | Some op ->
          Report.note "     operator's own ASN: %d" op.Hoiho_netsim.Oper.asn
      | None -> ())
  | [] -> ());
  Report.note "(not a table of this paper: the ASN capability is the IMC 2020";
  Report.note "feature of the Hoiho framework the paper builds on)"

(* --- spoofing-VP detection (section 5.1.4 future work) --- *)

let spoof () =
  Report.section "Spoofing-VP detection (section 5.1.4 future work)";
  let base = List.assoc aug20 (presets ()) in
  let config =
    { base with Generate.label = aug20 ^ " +spoof"; n_spoofing_vps = 7 }
  in
  let ds, truth = Generate.generate config in
  let flagged = Hoiho.Vpfilter.detect ds in
  Report.note "VPs with spoofed measurements injected: 7 (the paper found 7)";
  Report.note "VPs flagged by disc-compatibility scoring: %d (%s)"
    (List.length flagged)
    (String.concat "," (List.map string_of_int flagged));
  let db = Truth.db truth in
  let score dataset =
    let p = Pipeline.run ~db dataset in
    let suffixes = Oper.validation_suffixes in
    let agg =
      List.fold_left
        (fun (tp, total) suffix ->
          let gts = Validate.ground_truth_hostnames dataset truth ~suffix in
          let s =
            Validate.score
              (fun gt -> Pipeline.geolocate p gt.Validate.hostname)
              gts
          in
          (tp + s.Validate.tp, total + Validate.total s))
        (0, 0) suffixes
    in
    Report.pct (fst agg) (snd agg)
  in
  Report.note "correct geolocations with spoofers present: %.1f%%" (score ds);
  Report.note "after stripping flagged VPs:               %.1f%%"
    (score (Hoiho.Vpfilter.strip ds flagged))

(* --- router names (platform capability, IMC 2019) --- *)

let names () =
  Report.section "Router-name conventions (the Hoiho platform, IMC 2019)";
  let ds, _, _ = run_for aug20 in
  let groups = Dataset.by_suffix ds in
  let learned =
    List.filter_map
      (fun (suffix, routers) ->
        match Hoiho.Rname.learn ~suffix routers with
        | Some t when Hoiho.Rname.usable t -> Some (suffix, t)
        | _ -> None)
      groups
  in
  Report.note "usable router-name conventions learned for %d suffixes"
    (List.length learned);
  let tp, fp =
    List.fold_left
      (fun (tp, fp) (_, (t : Hoiho.Rname.t)) ->
        (tp + t.Hoiho.Rname.counts.Hoiho.Rname.tp,
         fp + t.Hoiho.Rname.counts.Hoiho.Rname.fp))
      (0, 0) learned
  in
  Report.note "multi-interface routers named consistently and uniquely: %d (fp %d)"
    tp fp;
  (match learned with
  | (suffix, t) :: _ -> Report.note "e.g. %s: %s" suffix t.Hoiho.Rname.source
  | [] -> ());
  Report.note "(the IMC 2019 capability of the framework; completes the";
  Report.note "names / ASNs / geolocation platform triple of section 3.4)"

(* --- TBG anchoring (conclusion: "the most promising next step") --- *)

let tbg () =
  Report.section "TBG: naming-convention anchors geolocating adjacent routers";
  let _, truth, p = run_for aug20 in
  let inferences, n_anchors = Hoiho.Tbg.coverage_gain p in
  Report.note "anchors (routers geolocated by usable NCs): %d" n_anchors;
  Report.note "additional routers geolocated via anchored neighbors: %d"
    (List.length inferences);
  let correct =
    List.filter
      (fun (inf : Hoiho.Tbg.inference) ->
        match Truth.router truth inf.Hoiho.Tbg.router_id with
        | Some t -> Validate.correct inf.Hoiho.Tbg.city t.Truth.coord
        | None -> false)
      inferences
  in
  Report.note "of which within 40 km of the true location: %d (%.1f%%)"
    (List.length correct)
    (Report.pct (List.length correct) (List.length inferences));
  Report.note "(implements the paper's §3.1/§8 direction: regex-derived";
  Report.note "locations as anchors for topology-based geolocation)"

(* --- figure 13 --- *)

let show_phase consist samples label cands =
  Report.subsection label;
  let scored =
    List.map
      (fun c ->
        let counts = Evalx.eval_cand_counts consist Fixtures.db c samples in
        (c, counts))
      cands
  in
  let ranked =
    List.sort (fun (_, a) (_, b) -> compare (Evalx.atp b) (Evalx.atp a)) scored
  in
  List.iteri
    (fun i ((c : Cand.t), counts) ->
      if i < 6 then
        Printf.printf "  tp=%2d fp=%2d fn=%2d unk=%2d atp=%3d ppv=%3.0f%%  %s\n"
          counts.Evalx.tp counts.Evalx.fp counts.Evalx.fn counts.Evalx.unk
          (Evalx.atp counts)
          (100.0 *. Evalx.ppv counts)
          c.Cand.source)
    ranked;
  if List.length ranked > 6 then
    Report.note "  ... and %d more candidates" (List.length ranked - 6)

let fig13 () =
  Report.section "Figure 13: regex generation phases on an alter.net-style suffix";
  let ds, routers = Fixtures.alter_net () in
  let consist = Hoiho.Consist.create ds in
  let samples =
    Hoiho.Apparent.build_samples consist Fixtures.db ~suffix:"alter.net" routers
  in
  let tagged =
    List.filter (fun (s : Hoiho.Apparent.sample) -> s.Hoiho.Apparent.tags <> []) samples
  in
  Report.note "%d hostnames, %d with apparent geohints" (List.length samples)
    (List.length tagged);
  let p1 = Hoiho.Regen.phase1 ~suffix:"alter.net" tagged in
  show_phase consist samples "phase 1: base regexes" p1;
  let p2 = Hoiho.Regen.phase2 p1 in
  show_phase consist samples "phase 2: merged regexes (\\d+ -> \\d*)" p2;
  let pool = Cand.dedup (p1 @ p2) in
  let p3 = Hoiho.Regen.phase3 samples pool in
  show_phase consist samples "phase 3: embedded character classes" p3;
  match Ncsel.build consist Fixtures.db (Cand.dedup (pool @ p3)) samples with
  | None -> Report.note "no NC built"
  | Some nc ->
      Report.subsection "phase 4: selected naming convention (regex set)";
      List.iter (fun (c : Cand.t) -> Printf.printf "  %s\n" c.Cand.source) nc.Ncsel.cands;
      Printf.printf "  tp=%d fp=%d fn=%d unk=%d atp=%d ppv=%.0f%%\n"
        nc.Ncsel.counts.Evalx.tp nc.Ncsel.counts.Evalx.fp nc.Ncsel.counts.Evalx.fn
        nc.Ncsel.counts.Evalx.unk (Evalx.atp nc.Ncsel.counts)
        (100.0 *. Evalx.ppv nc.Ncsel.counts);
      Report.note "paper's NC #7 also combines IATA, CLLI and city-name regexes";
      Report.note "to cover all of the operator's formats"

(* --- figure 2 --- *)

let fig2 () =
  Report.section "Figure 2: DRoP's rigid rules vs Hoiho regexes (360.net style)";
  let ds, routers = Fixtures.three_sixty_net () in
  let consist = Hoiho.Consist.create ds in
  let hostnames = List.concat_map (fun (r : Router.t) -> r.Router.hostnames) routers in
  let drop = Hoiho_baselines.Drop.learn Fixtures.db ds in
  let drop_matched =
    List.filter (fun h -> Hoiho_baselines.Drop.infer drop Fixtures.db h <> None) hostnames
  in
  let result = Pipeline.run_suffix consist Fixtures.db ~suffix:"360.net" routers in
  let hoiho_matched =
    match result.Pipeline.nc with
    | None -> []
    | Some nc ->
        List.filter
          (fun h ->
            List.exists
              (fun (c : Cand.t) -> Hoiho_rx.Engine.matches c.Cand.regex h)
              nc.Ncsel.cands)
          hostnames
  in
  Report.note "hostnames in the suffix: %d (two different shapes)" (List.length hostnames);
  (match Hoiho_baselines.Drop.find_rule drop "360.net" with
  | Some rule ->
      Report.note "DRoP rule: geohint at position %d from the end, exactly %d labels"
        rule.Hoiho_baselines.Drop.pos_from_end rule.Hoiho_baselines.Drop.n_labels
  | None -> Report.note "DRoP learned no rule");
  Report.paper_vs "DRoP coverage" "3 of 7 hostnames"
    (Printf.sprintf "%d of %d" (List.length drop_matched) (List.length hostnames));
  (match result.Pipeline.nc with
  | Some nc ->
      List.iter
        (fun (c : Cand.t) -> Printf.printf "  hoiho: %s\n" c.Cand.source)
        nc.Ncsel.cands
  | None -> ());
  Report.paper_vs "Hoiho coverage" "7 of 7 hostnames"
    (Printf.sprintf "%d of %d" (List.length hoiho_matched) (List.length hostnames))

(* --- performance gates ---
   What `-e perf` can fail on. Performance figures come from
   bench/perf/run.sh, which repeats each workload and reports the
   spread; the single-run wall-clock gates below are enforced only in
   full runs. *)

let perf () =
  Report.section "Performance gates";
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let module Obs = Hoiho_obs.Obs in
  let cores = Domain.recommended_domain_count () in
  (* why a gate is not enforced on this run, if it is not *)
  let full_run_only = if !quick then Some "--quick" else None in
  (* speedup and loopback req/s targets are statements about hardware
     that can run 4 lanes; on smaller hosts they are reported, not
     silently passed *)
  let four_cores_only =
    if !quick then Some "--quick"
    else if cores < 4 then Some (Printf.sprintf "%d core(s) < 4" cores)
    else None
  in
  (* every gate prints its verdict; enforced ones that fail are raised
     together once all have run *)
  let failed = ref [] in
  let gate ?unenforced name ok detail =
    let verdict =
      match unenforced with
      | Some why -> "not enforced: " ^ why
      | None when ok -> "ok"
      | None ->
          failed := name :: !failed;
          "FAILED"
    in
    Report.note "%s: %s (%s)" name detail verdict
  in
  (* a fresh dataset, not the cached one: the gates measure the same
     work whichever experiments ran before *)
  let config = List.assoc aug20 (presets ()) in
  let config = { config with Generate.label = aug20 } in
  let ds, truth = Generate.generate config in
  let db = Truth.db truth in
  let jobs = max 2 (Hoiho_obs.Pool.default_jobs ()) in
  (* warm-up: a jobs=1 learn, then the jobs=[jobs] learn that the
     health and relearn gates reuse; the untraced baseline below is
     the third learn in the process *)
  Obs.reset ();
  ignore (Pipeline.run ~db ~jobs:1 ds);
  Obs.reset ();
  let par = Pipeline.run ~db ~jobs ds in
  (* tracing overhead: a warm untraced run, then the same warm pipeline
     with span collection on. The contract (DESIGN.md §10) is < 10%
     wall-clock overhead *)
  Obs.reset ();
  let _, untraced_ms = time (fun () -> Pipeline.run ~db ~jobs ds) in
  Obs.reset ();
  let (_, traced_ms), spans, trace_dropped =
    Hoiho_obs.Trace.collect (fun () -> time (fun () -> Pipeline.run ~db ~jobs ds))
  in
  let trace_spans = List.length spans in
  let trace_overhead = (traced_ms -. untraced_ms) /. untraced_ms in
  gate ?unenforced:full_run_only "tracing" (trace_overhead < 0.10)
    (Printf.sprintf
       "untraced %.1f ms, traced %.1f ms, overhead %+.1f%% (%d spans, %d \
        dropped), limit < 10%%"
       untraced_ms traced_ms (100.0 *. trace_overhead) trace_spans
       trace_dropped);
  (* health: the full monitoring stack (SLO objectives evaluated by the
     housekeeper + per-response access logging + drift windows) against
     the bare daemon, serving the learned model through the snapshot
     codec to 4 keep-alive clients on a loopback socket. Best of two
     trials each side to damp loopback scheduling noise; the budget is
     < 5% req/s. *)
  let model =
    let m = Hoiho.Learned_io.of_pipeline par in
    match Hoiho.Learned_io.decode (Hoiho.Learned_io.encode m) with
    | Ok m -> m
    | Error e -> failwith (Hoiho.Learned_io.error_to_string e)
  in
  let hosts =
    Array.of_list
      (Array.to_list ds.Dataset.routers
      |> List.concat_map (fun (r : Router.t) -> r.Router.hostnames))
  in
  let module Server = Hoiho_net.Server in
  let module Http = Hoiho_net.Http in
  let serve_rps ~jobs mutate =
    let cfg = mutate { Server.default_config with Server.jobs } in
    let server = Server.start ~config:cfg model in
    let port = Server.port server in
    let per_client = if !quick then 200 else 1000 in
    let nh = Array.length hosts in
    let t0 = Obs.now_ms () in
    let clients =
      List.init jobs (fun cid ->
          Domain.spawn (fun () ->
              let fd = Unix.socket PF_INET SOCK_STREAM 0 in
              Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              let reader = Http.reader_of_fd fd in
              for i = 0 to per_client - 1 do
                let h = hosts.((cid + (i * jobs)) mod nh) in
                Http.write_all fd
                  (Http.request ~meth:"GET" ~headers:[ ("Host", "b") ]
                     ("/geolocate?h=" ^ Http.pct_encode h));
                match Http.read_response reader with
                | Ok _ -> ()
                | Error _ -> failwith "serve bench: no well-formed response"
              done;
              Unix.close fd))
    in
    List.iter Domain.join clients;
    let wall_ms = Obs.now_ms () -. t0 in
    Server.stop server;
    float_of_int (jobs * per_client) /. (wall_ms /. 1000.0)
  in
  (* bare daemons at jobs 1 and 4 warm the process first, so neither
     side's first trial is the first daemon in it *)
  ignore (serve_rps ~jobs:1 Fun.id);
  ignore (serve_rps ~jobs:4 Fun.id);
  let access_path = Filename.temp_file "hoiho_bench_access" ".log" in
  let best mutate =
    Float.max (serve_rps ~jobs:4 mutate) (serve_rps ~jobs:4 mutate)
  in
  let health_plain_rps = best (fun c -> c) in
  let health_mon_rps =
    best (fun c ->
        {
          c with
          Server.slo =
            {
              Hoiho_net.Slo.default with
              objectives =
                [
                  {
                    Hoiho_obs.Health.metric = "latency_p99_ms";
                    max_value = 250.0;
                    fail_ratio = 4.0;
                  };
                  {
                    Hoiho_obs.Health.metric = "error_rate";
                    max_value = 0.05;
                    fail_ratio = 4.0;
                  };
                ];
            };
          access_log = Some access_path;
        })
  in
  (try Sys.remove access_path with Sys_error _ -> ());
  (try Sys.remove (access_path ^ ".1") with Sys_error _ -> ());
  let health_overhead_pct =
    (health_plain_rps -. health_mon_rps) /. health_plain_rps *. 100.0
  in
  gate ?unenforced:four_cores_only "health" (health_overhead_pct < 5.0)
    (Printf.sprintf
       "bare %.0f req/s, monitored %.0f req/s at jobs=4, overhead %.2f%%, \
        budget < 5%%"
       health_plain_rps health_mon_rps health_overhead_pct);
  (* incremental relearn (Delta) vs batch on a ~10%-dirty corpus: one
     observation event per dirty group, then relearn only those groups
     against the prior run's snapshot, as POST /observe does — the
     output must encode byte-identically to a from-scratch batch learn
     of the final corpus (metrics normalized), and reusing the ~90%
     clean groups must be >= 3x faster than redoing them *)
  let groups = Dataset.by_suffix ds in
  let n_groups = List.length groups in
  let n_dirty = max 1 (n_groups / 10) in
  let garr = Array.of_list groups in
  (* by_suffix sorts descending by size: skip the fattest group and
     stride across the rest so the dirty slice is representative *)
  let stride = max 1 ((n_groups - 1) / n_dirty) in
  let relearn_events =
    List.init n_dirty (fun i ->
        let suffix, routers = garr.(1 + (i * stride mod (n_groups - 1))) in
        let r : Router.t = List.hd routers in
        Hoiho.Delta.Add_hostname
          {
            router = r.Router.id;
            hostname = Printf.sprintf "relearn%d-probe.cr1.%s" i suffix;
          })
  in
  let best_of_3 f =
    let x, ms0 = time f in
    let ms = min ms0 (min (snd (time f)) (snd (time f))) in
    (x, ms)
  in
  let model = Hoiho.Learned_io.of_pipeline par in
  let (incr_model, incr_corpus, incr_stats), incr_ms =
    best_of_3 (fun () ->
        match
          Hoiho.Delta.relearn_model ~jobs ~model ~corpus:ds relearn_events
        with
        | Ok r -> r
        | Error e -> failwith (Hoiho.Delta.error_to_string e))
  in
  let batch_run, batch_ms =
    best_of_3 (fun () -> Pipeline.run ~db ~jobs incr_corpus)
  in
  let normalize (m : Hoiho.Learned_io.t) =
    { m with Hoiho.Learned_io.metrics = Hoiho_util.Json.Obj [] }
  in
  gate "relearn identity"
    (Hoiho.Learned_io.encode (normalize incr_model)
    = Hoiho.Learned_io.encode
        (normalize (Hoiho.Learned_io.of_pipeline batch_run)))
    "incremental output encodes byte-identically to batch";
  let relearn_speedup = batch_ms /. incr_ms in
  gate ?unenforced:full_run_only "relearn speedup" (relearn_speedup >= 3.0)
    (Printf.sprintf
       "%d/%d groups dirty (%.1f%%), incremental %.1f ms vs batch %.1f ms \
        (%.2fx), target >= 3.0x"
       incr_stats.Hoiho.Delta.groups_relearned n_groups
       (100.0
       *. float_of_int (List.length incr_stats.Hoiho.Delta.dirty)
       /. float_of_int n_groups)
       incr_ms batch_ms relearn_speedup);
  (* --- jobs sweep on the paper-scale preset ---
     The paper learns from the Aug '20 IPv4 ITDK (2.56M routers);
     Presets.paper reproduces that magnitude at scale 1.0. The sweep
     takes a proportional slice (HOIHO_BENCH_SCALE, in paper units) so
     small hosts can still run it, and measures the learn wall clock at
     jobs = 1/2/4/8 over the same generated dataset. pool.* counters
     are scheduling-dependent; every other counter counts work and must
     not vary with the jobs setting. *)
  let sweep_scale =
    let default = if !quick then 0.005 else 0.05 in
    match Sys.getenv_opt "HOIHO_BENCH_SCALE" with
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some f when f > 0.0 -> f
        | _ -> default)
    | None -> default
  in
  let sweep_config = Presets.paper ~scale:sweep_scale () in
  let sweep_ds, sweep_truth = Generate.generate sweep_config in
  let sweep_db = Truth.db sweep_truth in
  Report.note "jobs sweep: %s" sweep_config.Generate.label;
  let work_counters (s : Obs.snapshot) =
    List.filter
      (fun (name, _) -> not (String.length name >= 5 && String.sub name 0 5 = "pool."))
      s.Obs.counters
  in
  let sweep =
    List.map
      (fun j ->
        Obs.reset ();
        Gc.full_major ();
        let p, ms = time (fun () -> Pipeline.run ~db:sweep_db ~jobs:j sweep_ds) in
        (j, p, ms))
      [ 1; 2; 4; 8 ]
  in
  let _, sweep_p1, sweep_ms1 = List.hd sweep in
  let sweep_rows =
    List.map
      (fun (j, p, ms) ->
        let identical =
          p.Pipeline.results = sweep_p1.Pipeline.results
          && work_counters p.Pipeline.metrics
             = work_counters sweep_p1.Pipeline.metrics
        in
        (j, ms, sweep_ms1 /. ms, identical))
      sweep
  in
  Report.table
    ~header:[ "jobs"; "wall ms"; "speedup"; "identical" ]
    (List.map
       (fun (j, ms, sp, identical) ->
         [
           string_of_int j;
           Printf.sprintf "%.1f" ms;
           Printf.sprintf "%.2fx" sp;
           string_of_bool identical;
         ])
       sweep_rows);
  gate "jobs sweep identity"
    (List.for_all (fun (_, _, _, identical) -> identical) sweep_rows)
    "results and work counters identical at jobs 1/2/4/8";
  let speedup4 =
    match List.find_opt (fun (j, _, _, _) -> j = 4) sweep_rows with
    | Some (_, _, sp, _) -> sp
    | None -> 0.0
  in
  gate ?unenforced:four_cores_only "jobs sweep speedup" (speedup4 >= 1.5)
    (Printf.sprintf "%.2fx at jobs=4, target >= 1.5x" speedup4);
  (* --- confidence calibration on the paper-scale slice ---
     the confidence subsystem's acceptance gate, measured on the same
     paper-preset dataset as the jobs sweep: decile accuracy must be
     monotone (tolerance 0.05) and ECE must stay under the limit, with
     abstentions scored at zero confidence. *)
  let module Calibration = Hoiho_validate.Calibration in
  let calib =
    Calibration.of_pipeline sweep_p1 sweep_truth
      ~suffixes:(Truth.geo_suffixes sweep_truth)
  in
  let calib_monotone = Calibration.monotone calib in
  gate "calibration"
    (calib_monotone && calib.Calibration.ece <= 0.15)
    (Printf.sprintf
       "%s: %d ground-truth samples (%d answered), Brier %.4f, ECE %.4f \
        (limit 0.15), decile accuracy monotone: %b"
       sweep_config.Generate.label calib.Calibration.total
       calib.Calibration.answered calib.Calibration.brier calib.Calibration.ece
       calib_monotone);
  if !failed <> [] then
    failwith ("perf gates failed: " ^ String.concat ", " (List.rev !failed))

(* --- driver --- *)

let experiments =
  [
    ("table1", "ITDK summaries", table1);
    ("fig5", "ping vs traceroute RTTs", fig5);
    ("table2", "coverage of usable NCs", table2);
    ("table3", "NC classifications", table3);
    ("table4", "geohint types and annotations", table4);
    ("fig9", "method comparison vs baselines", fig9);
    ("table5", "most frequently learned geohints", table5);
    ("table6", "validation of learned geohints", table6);
    ("fig10", "properties of learned geohints", fig10);
    ("fig11", "learned-geohint correctness vs VP proximity", fig11);
    ("ablation", "pipeline without stage 4", ablation);
    ("cai", "CBG feasibility of DRoP vs Hoiho locations", cai);
    ("stale", "stale-hostname detection accuracy", stale);
    ("asn", "ASN-extraction conventions (platform, §3.4)", asn);
    ("tbg", "topology anchoring coverage gain (§3.1, §8)", tbg);
    ("names", "router-name conventions (platform, IMC 2019)", names);
    ("spoof", "spoofing-VP detection (§5.1.4 future work)", spoof);
    ("fig13", "regex generation phases", fig13);
    ("fig2", "DRoP rigidity comparison", fig2);
    ("perf", "performance gates: identity, calibration, relearn, overheads", perf);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse selected = function
    | [] -> selected
    | "--quick" :: rest ->
        quick := true;
        parse selected rest
    | "--list" :: _ ->
        List.iter (fun (id, doc, _) -> Printf.printf "%-10s %s\n" id doc) experiments;
        exit 0
    | ("-e" | "--experiment") :: id :: rest -> parse (id :: selected) rest
    | other :: _ ->
        Printf.eprintf "unknown argument %s (try --list)\n" other;
        exit 2
  in
  let selected = parse [] args in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id selected) experiments
  in
  if to_run = [] then begin
    Printf.eprintf "no such experiment (try --list)\n";
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, _, run) -> run ()) to_run;
  Printf.eprintf "\n(%d experiment(s), %.1f s)\n" (List.length to_run)
    (Unix.gettimeofday () -. t0)
