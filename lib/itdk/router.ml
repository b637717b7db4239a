type t = {
  id : int;
  hostnames : string list;
  asn : int option;
  ping_rtts : Rtts.t;
  trace_rtts : Rtts.t;
}

let make ?(hostnames = []) ?asn ?(ping_rtts = Rtts.empty) ?(trace_rtts = Rtts.empty) id =
  { id; hostnames; asn; ping_rtts; trace_rtts }

let has_hostname t = t.hostnames <> []
let has_rtt t = not (Rtts.is_empty t.ping_rtts && Rtts.is_empty t.trace_rtts)
let min_ping_rtt t = Rtts.min t.ping_rtts
let min_trace_rtt t = Rtts.min t.trace_rtts

let suffixes t =
  List.filter_map Hoiho_psl.Psl.registered_suffix t.hostnames
  |> List.sort_uniq compare
