type t = {
  label : string;
  routers : Router.t array;
  vps : Vp.t array;
  links : (int * int) array;
}

let make ?(links = [||]) ~label ~routers ~vps () =
  { label; routers; vps; links }

let vp t id =
  match Array.find_opt (fun (v : Vp.t) -> v.id = id) t.vps with
  | Some v -> v
  | None -> raise Not_found

let n_routers t = Array.length t.routers
let n_with_hostname t =
  Array.fold_left (fun acc r -> if Router.has_hostname r then acc + 1 else acc) 0 t.routers
let n_with_rtt t =
  Array.fold_left (fun acc r -> if Router.has_rtt r then acc + 1 else acc) 0 t.routers

let n_responsive t =
  Array.fold_left
    (fun acc r -> if Rtts.is_empty r.Router.ping_rtts then acc else acc + 1)
    0 t.routers

let by_suffix t =
  let tbl : (string, Router.t list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      List.iter
        (fun suffix ->
          let cur = Option.value (Hashtbl.find_opt tbl suffix) ~default:[] in
          Hashtbl.replace tbl suffix (r :: cur))
        (Router.suffixes r))
    t.routers;
  Hashtbl.fold (fun suffix routers acc -> (suffix, List.rev routers) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare (List.length b) (List.length a))

let summary t =
  Printf.sprintf "%s: %d routers, %d (%.1f%%) w/ hostnames, %d (%.1f%%) w/ RTT, %d VPs"
    t.label (n_routers t) (n_with_hostname t)
    (Hoiho_util.Stat.pct (n_with_hostname t) (n_routers t))
    (n_with_rtt t)
    (Hoiho_util.Stat.pct (n_with_rtt t) (n_routers t))
    (Array.length t.vps)
