module Ast = Hoiho_rx.Ast
module Engine = Hoiho_rx.Engine

type filler = Flabel | Flead | Fdash

type comp =
  | Lit of string
  | Node of Ast.node
  | Fill of filler
  | Cap of Plan.elem * Ast.node list

type t = {
  body : comp list;
  suffix : string;
  plan : Plan.t;
  regex : Engine.t;
  source : string;
}

let lit_nodes s = List.init (String.length s) (fun i -> Ast.Lit s.[i])

let filler_node = function
  | Flabel -> Ast.Rep (Ast.Cls (Ast.not_char '.'), 1, None, Ast.Greedy)
  | Flead -> Ast.Rep (Ast.Any, 1, None, Ast.Greedy)
  | Fdash -> Ast.Rep (Ast.Cls (Ast.not_char '-'), 1, None, Ast.Greedy)

let ast_of ~capture_fillers ~suffix body =
  let nodes =
    List.concat_map
      (fun comp ->
        match comp with
        | Lit s -> lit_nodes s
        | Node n -> [ n ]
        | Fill f ->
            if capture_fillers then [ Ast.Grp [ filler_node f ] ]
            else [ filler_node f ]
        | Cap (_, inner) -> [ Ast.Grp inner ])
      body
  in
  (Ast.Bol :: nodes) @ lit_nodes ("." ^ suffix) @ [ Ast.Eol ]

let plan_of body =
  List.filter_map (function Cap (elem, _) -> Some elem | _ -> None) body

let build ~suffix body =
  let ast = ast_of ~capture_fillers:false ~suffix body in
  let regex = Engine.compile ast in
  { body; suffix; plan = plan_of body; regex; source = Ast.to_string ast }

let source_of ~suffix body = Ast.to_string (ast_of ~capture_fillers:false ~suffix body)

let build_many ?(jobs = 1) ~suffix bodies =
  (* rendering a body's source is cheap; compiling it (prefilter
     analysis, class bitmaps) is not. Deduplicate on the rendered
     source BEFORE compiling — the generation phases emit the same
     pattern from many samples — then fan the distinct compiles out
     over the shared pool. Keeps first occurrences in order, exactly
     like [dedup] over per-body [build] results. *)
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun body ->
        let src = source_of ~suffix body in
        if Hashtbl.mem seen src then false
        else begin
          Hashtbl.replace seen src ();
          true
        end)
      bodies
  in
  Hoiho_obs.Pool.parallel_map (Hoiho_obs.Pool.get jobs) (build ~suffix) distinct

let analysis_regex t =
  let ast = ast_of ~capture_fillers:true ~suffix:t.suffix t.body in
  let regex = Engine.compile ast in
  (* group order follows component order; map each to its role *)
  let groups =
    List.mapi (fun i c -> (i, c)) t.body
    |> List.filter_map (fun (i, c) ->
           match c with
           | Fill _ -> Some (`Fill i)
           | Cap (elem, _) -> Some (`Plan elem)
           | Lit _ | Node _ -> None)
  in
  (regex, groups)

let equal_structure a b = a.source = b.source

let dedup cands =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      if Hashtbl.mem seen c.source then false
      else begin
        Hashtbl.replace seen c.source ();
        true
      end)
    cands
