(* Seeded adversity model over a synthetic dataset.

   Real ITDK snapshots are full of operator-authored garbage: truncated
   PTR records, stray bytes, names kept from decommissioned gear, RTT
   samples lost or inflated by queueing, and alias resolution gluing the
   wrong interfaces together. The generator produces clean data by
   design; [apply] re-dirties it, deterministically from a single seed,
   so the pipeline's graceful-degradation path can be exercised and
   regression-tested.

   Determinism contract: each chaos class draws from its own split PRNG
   stream, derived from the seed in a fixed order regardless of which
   classes are enabled — so enabling one class never perturbs another's
   injections, and the same config always produces the same mutated
   dataset (and the same chaos.* counter values). *)

module Prng = Hoiho_util.Prng
module Db = Hoiho_geodb.Db
module Router = Hoiho_itdk.Router
module Dataset = Hoiho_itdk.Dataset
module Vp = Hoiho_itdk.Vp
module Obs = Hoiho_obs.Obs

type cls =
  | Hostname_mangle
  | Dict_dropout
  | Rtt_loss
  | Rtt_outlier
  | Rtt_negative
  | Alias_error

let all_classes =
  [ Hostname_mangle; Dict_dropout; Rtt_loss; Rtt_outlier; Rtt_negative; Alias_error ]

let class_name = function
  | Hostname_mangle -> "hostname_mangle"
  | Dict_dropout -> "dict_dropout"
  | Rtt_loss -> "rtt_loss"
  | Rtt_outlier -> "rtt_outlier"
  | Rtt_negative -> "rtt_negative"
  | Alias_error -> "alias_error"

type config = { seed : int; level : int; classes : cls list }

let config ?(level = 1) ?(classes = all_classes) seed =
  { seed; level = max 1 level; classes }

(* injection volume counters (DESIGN.md §8); process-wide like every
   Obs metric, scoped per run by Obs.reset *)
let c_mangled = Obs.counter "chaos.hostnames_mangled"
let c_dict = Obs.counter "chaos.dict_entries_dropped"
let c_rtt_drop = Obs.counter "chaos.rtts_dropped"
let c_rtt_out = Obs.counter "chaos.rtt_outliers"
let c_rtt_neg = Obs.counter "chaos.rtts_negated"
let c_alias = Obs.counter "chaos.alias_errors"

(* per-item injection probability: 8% per level, capped so even absurd
   levels leave some signal for the pipeline to chew on *)
let prob cfg = min 0.9 (0.08 *. float_of_int cfg.level)
let enabled cfg c = List.mem c cfg.classes
let fire cfg rng = Prng.float rng 1.0 < prob cfg

(* the mangle menu mirrors the PTR pathologies seen in the wild:
   truncation, control bytes, high-bit bytes, empty labels (".."),
   over-long labels, embedded whitespace *)
let mangle rng h =
  Obs.incr c_mangled;
  let n = String.length h in
  let insert_at pos s = String.sub h 0 pos ^ s ^ String.sub h pos (n - pos) in
  match Prng.int rng 6 with
  | 0 -> if n <= 1 then "" else String.sub h 0 (Prng.range rng 1 (n - 1))
  | 1 -> insert_at (Prng.int rng (n + 1)) (String.make 1 (Char.chr (Prng.int rng 32)))
  | 2 -> insert_at (Prng.int rng (n + 1)) (String.make 1 (Char.chr (128 + Prng.int rng 128)))
  | 3 -> insert_at (Prng.int rng (n + 1)) ".."
  | 4 -> String.make 255 'x' ^ "." ^ h
  | _ -> insert_at (Prng.int rng (n + 1)) " "

let mangle_hostnames cfg rng routers =
  Array.map
    (fun (r : Router.t) ->
      match r.Router.hostnames with
      | [] -> r
      | hs ->
          let hs' = List.map (fun h -> if fire cfg rng then mangle rng h else h) hs in
          { r with Router.hostnames = hs' })
    routers

let drop_dict cfg rng db =
  let kept =
    List.filter
      (fun _city ->
        if fire cfg rng then begin
          Obs.incr c_dict;
          false
        end
        else true)
      (Db.cities db)
  in
  (* an empty dictionary is not adversity, it is a config error *)
  if kept = [] then db else Db.of_cities kept

let map_rtts f (r : Router.t) =
  { r with Router.ping_rtts = f r.Router.ping_rtts; trace_rtts = f r.Router.trace_rtts }

let lose_rtts cfg rng routers =
  Array.map
    (map_rtts
       (Hoiho_itdk.Rtts.filter (fun _ _ ->
            if fire cfg rng then begin
              Obs.incr c_rtt_drop;
              false
            end
            else true)))
    routers

(* outliers break the generator's soundness invariant both ways: a
   queueing-delay blow-up (harmless to the speed-of-light test) and a
   spoofed too-fast response (which falsely rules out the true city) *)
let outlier_rtts cfg rng routers =
  Array.map
    (map_rtts
       (Hoiho_itdk.Rtts.map (fun vp rtt ->
            if fire cfg rng then begin
              Obs.incr c_rtt_out;
              if Prng.bool rng then (vp, rtt *. (10.0 +. Prng.float rng 90.0))
              else (vp, 0.1 +. Prng.float rng 0.4)
            end
            else (vp, rtt))))
    routers

let negate_rtts cfg rng routers =
  Array.map
    (map_rtts
       (Hoiho_itdk.Rtts.map (fun vp rtt ->
            if fire cfg rng then begin
              Obs.incr c_rtt_neg;
              (vp, -.rtt)
            end
            else (vp, rtt))))
    routers

(* alias-resolution errors take two shapes: a false alias (another
   router's hostname glued onto this one) and a dangling VP reference
   (an RTT sample pointing at a monitor the dataset does not contain —
   the shape that surfaces as Consist.Unknown_vp downstream) *)
let alias_errors cfg rng max_vp_id routers =
  let n = Array.length routers in
  Array.map
    (fun (r : Router.t) ->
      if not (fire cfg rng) then r
      else begin
        Obs.incr c_alias;
        if Prng.bool rng && n > 1 then begin
          let other = routers.(Prng.int rng n) in
          match other.Router.hostnames with
          | [] -> r
          | h :: _ -> { r with Router.hostnames = r.Router.hostnames @ [ h ] }
        end
        else
          let dangle =
            Hoiho_itdk.Rtts.map (fun vp rtt ->
                if Prng.bool rng then (max_vp_id + 1 + Prng.int rng 64, rtt)
                else (vp, rtt))
          in
          map_rtts dangle r
      end)
    routers

let apply cfg db (ds : Dataset.t) =
  let rng = Prng.create cfg.seed in
  (* fixed split order: streams must not depend on the enabled set *)
  let r_mangle = Prng.split rng in
  let r_dict = Prng.split rng in
  let r_loss = Prng.split rng in
  let r_out = Prng.split rng in
  let r_neg = Prng.split rng in
  let r_alias = Prng.split rng in
  let db = if enabled cfg Dict_dropout then drop_dict cfg r_dict db else db in
  let routers = ds.Dataset.routers in
  let routers =
    if enabled cfg Hostname_mangle then mangle_hostnames cfg r_mangle routers
    else routers
  in
  let routers = if enabled cfg Rtt_loss then lose_rtts cfg r_loss routers else routers in
  let routers =
    if enabled cfg Rtt_outlier then outlier_rtts cfg r_out routers else routers
  in
  let routers =
    if enabled cfg Rtt_negative then negate_rtts cfg r_neg routers else routers
  in
  let routers =
    if enabled cfg Alias_error then begin
      let max_vp_id =
        Array.fold_left (fun m (v : Vp.t) -> max m v.Vp.id) 0 ds.Dataset.vps
      in
      alias_errors cfg r_alias max_vp_id routers
    end
    else routers
  in
  ( db,
    Dataset.make ~links:ds.Dataset.links ~label:ds.Dataset.label ~routers
      ~vps:ds.Dataset.vps () )
