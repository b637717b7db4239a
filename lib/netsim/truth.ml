type router = {
  city_key : string;
  coord : Hoiho_geo.Coord.t;
  intended_hint : string option;
  stale : bool;
  hostname_hints : (string * string option) list;
}

type t = {
  ops : Oper.t list;
  by_suffix : (string, Oper.t) Hashtbl.t;
  db : Hoiho_geodb.Db.t;
  routers : (int, router) Hashtbl.t;
}

let make ~db ops routers =
  let by_suffix = Hashtbl.create (List.length ops) in
  List.iter (fun (op : Oper.t) -> Hashtbl.replace by_suffix op.Oper.suffix op) ops;
  let by_id = Hashtbl.create (List.length routers) in
  List.iter (fun (id, r) -> Hashtbl.replace by_id id r) routers;
  { ops; by_suffix; db; routers = by_id }

let ops t = t.ops
let db t = t.db
let find t suffix = Hashtbl.find_opt t.by_suffix suffix
let router t id = Hashtbl.find_opt t.routers id

let code_city t ~suffix code =
  match find t suffix with
  | None -> None
  | Some op -> List.assoc_opt code (Oper.codebook op)

let is_custom t ~suffix code =
  match find t suffix with
  | None -> false
  | Some op -> List.mem_assoc code (Oper.customs op)

let geo_suffixes t =
  List.filter_map
    (fun (op : Oper.t) ->
      if op.Oper.kind = Oper.NoGeo then None else Some op.Oper.suffix)
    t.ops
