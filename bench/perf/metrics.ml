(* The metric table: name, unit, which direction is better, and for
   end-to-end metrics the bound by which the median may worsen before a
   change counts as a regression. Its only copy is BENCHMARK.json at the
   repository root, read at start-up. README.md says which layer each
   metric belongs to and which end-to-end metric it should move. *)

module Json = Hoiho_util.Json

type better = Lower | Higher

type def = { name : string; unit : string; better : better; bound : float option }

type t = { end_to_end : def list; per_layer : def list }

(* BENCHMARK.json in the working directory or the nearest one above it:
   the repository root when run from there, the build context's root
   when dune runs the smoke rule, which depends on the file *)
let find () =
  let rec up dir =
    let f = Filename.concat dir "BENCHMARK.json" in
    if Sys.file_exists f then f
    else
      let parent = Filename.dirname dir in
      if parent = dir then Common.harness_error "no BENCHMARK.json in %s or above it" (Sys.getcwd ())
      else up parent
  in
  up (Sys.getcwd ())

let parse path json =
  let bad fmt = Printf.ksprintf (fun m -> Common.harness_error "%s: %s" path m) fmt in
  let def key o =
    let str k = match Json.member k o with Some (Json.String s) -> s | _ -> bad "%s entry without %S" key k in
    let name = str "name" in
    let better =
      match str "better" with "lower" -> Lower | "higher" -> Higher | b -> bad "%s: better %S" name b
    in
    let bound =
      match Json.member "bound" o with
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | None -> None
      | Some _ -> bad "%s: bound is not a number" name
    in
    { name; unit = str "unit"; better; bound }
  in
  let defs key =
    match Json.member key json with
    | Some (Json.List l) -> List.map (def key) l
    | _ -> bad "no %S list" key
  in
  { end_to_end = defs "end_to_end"; per_layer = defs "per_layer" }

let load () =
  let path = find () in
  match Json.parse (Common.read_file path) with
  | Ok j -> parse path j
  | Error e -> Common.harness_error "%s: %s" path e
