module Strutil = Hoiho_util.Strutil
module Db = Hoiho_geodb.Db
module City = Hoiho_geodb.City
module Iso = Hoiho_geodb.Iso
module Router = Hoiho_itdk.Router
module Psl = Hoiho_psl.Psl

type span = { label : int; start : int; len : int }

type tag = {
  hint : string;
  hint_type : Plan.hint_type;
  spans : span list;
  cc : (span * string) option;
  state : (span * string) option;
  locations : City.t list;
}

type sample = {
  hostname : string;
  labels : string array;
  suffix : string;
  router : Router.t;
  tags : tag list;
}

let min_city_name_len = 4

(* alphanumeric tokens of a label with their offsets *)
type token = { t_label : int; t_start : int; text : string }

let tokens_of_label idx label =
  let n = String.length label in
  let out = ref [] in
  let start = ref (-1) in
  let flush stop =
    if !start >= 0 then begin
      out := { t_label = idx; t_start = !start; text = String.sub label !start (stop - !start) } :: !out;
      start := -1
    end
  in
  for i = 0 to n - 1 do
    if Strutil.is_alnum label.[i] then begin
      if !start < 0 then start := i
    end
    else flush i
  done;
  flush n;
  List.rev !out

let span_of_token tok len_override =
  { label = tok.t_label; start = tok.t_start; len = len_override }

(* the leading alphabetic run of a token, with its in-label offset: for
   "lhr15" -> "lhr"; for "100ge5" the run is "ge" at offset 3 *)
let alpha_run tok =
  let s = tok.text in
  let n = String.length s in
  let rec skip i = if i < n && Strutil.is_digit s.[i] then skip (i + 1) else i in
  let st = skip 0 in
  let rec until i = if i < n && Strutil.is_alpha s.[i] then until (i + 1) else i in
  let en = until st in
  if en > st then Some (String.sub s st (en - st), tok.t_start + st) else None

(* candidate (string, type, span list) interpretations of a token, before
   dictionary/RTT filtering *)
let candidates_of db tok next_tok =
  let out = ref [] in
  let add hint hint_type spans = out := (hint, hint_type, spans) :: !out in
  (match alpha_run tok with
  | None -> ()
  | Some (alpha, off) ->
      let n = String.length alpha in
      let span len = { label = tok.t_label; start = off; len } in
      if n = 3 then add alpha Plan.Iata [ span 3 ];
      if n = 4 then add alpha Plan.Icao [ span 4 ];
      if n = 5 then add alpha Plan.Locode [ span 5 ];
      if n >= 6 && n <= 11 then
        add (String.sub alpha 0 6) Plan.Clli [ span 6 ];
      if n >= min_city_name_len then add alpha Plan.CityName [ span n ];
      (* split CLLI: 4-letter token + adjacent 2-letter token (fig. 6e) *)
      (if n = 4 then
         match next_tok with
         | Some nt -> (
             match alpha_run nt with
             | Some (alpha2, off2) when String.length alpha2 = 2 && nt.t_label = tok.t_label ->
                 add (alpha ^ alpha2) Plan.Clli
                   [ span 4; { label = nt.t_label; start = off2; len = 2 } ]
             | _ -> ())
         | None -> ()));
  (* facility street addresses keep their digits: "529bryant" *)
  if String.exists Strutil.is_digit tok.text
     && String.exists Strutil.is_alpha tok.text
     && Db.lookup_facility db tok.text <> []
  then
    add tok.text Plan.FacilityAddr [ span_of_token tok (String.length tok.text) ];
  List.rev !out

(* find a country or state token matching one of the locations; the hint
   spans themselves are excluded *)
let find_region_tokens tokens ~exclude locations =
  let excluded tok =
    List.exists
      (fun sp ->
        sp.label = tok.t_label
        && tok.t_start < sp.start + sp.len
        && sp.start < tok.t_start + String.length tok.text)
      exclude
  in
  let cc = ref None and state = ref None in
  List.iter
    (fun tok ->
      if not (excluded tok) then
        match alpha_run tok with
        | Some (alpha, off) when String.length alpha >= 2 && String.length alpha <= 3 ->
            let sp = { label = tok.t_label; start = off; len = String.length alpha } in
            if !cc = None && Iso.is_country alpha
               && List.exists (fun c -> Dicts.cc_matches c alpha) locations
            then cc := Some (sp, alpha)
            else if !state = None
                    && List.exists (fun c -> Dicts.state_matches c alpha) locations
            then state := Some (sp, alpha)
        | _ -> ())
    tokens;
  (!cc, !state)

let tag_hostname consist db ~suffix router hostname =
  match Strutil.drop_suffix ~suffix hostname with
  | None | Some "" -> None
  | Some prefix ->
      let labels = Array.of_list (String.split_on_char '.' prefix) in
      let tokens =
        List.concat (List.mapi tokens_of_label (Array.to_list labels))
      in
      let rec with_next = function
        | [] -> []
        | [ x ] -> [ (x, None) ]
        | x :: (y :: _ as rest) -> (x, Some y) :: with_next rest
      in
      let tags = ref [] in
      List.iter
        (fun (tok, next_tok) ->
          List.iter
            (fun (hint, hint_type, spans) ->
              let locations = Dicts.lookup db hint_type hint in
              let consistent =
                List.filter (Consist.city_consistent consist router) locations
              in
              if consistent <> [] then begin
                let cc, state =
                  find_region_tokens tokens ~exclude:spans consistent
                in
                (* a matching region code narrows the candidate set *)
                let locations =
                  let narrowed =
                    List.filter
                      (Dicts.in_region ~cc:(Option.map snd cc)
                         ~state:(Option.map snd state))
                      consistent
                  in
                  if narrowed <> [] then narrowed else consistent
                in
                tags := { hint; hint_type; spans; cc; state; locations } :: !tags
              end)
            (candidates_of db tok next_tok))
        (with_next tokens);
      Some { hostname; labels; suffix; router; tags = List.rev !tags }

let build_samples consist db ~suffix routers =
  List.concat_map
    (fun router ->
      List.filter_map
        (fun hostname -> tag_hostname consist db ~suffix router hostname)
        router.Router.hostnames)
    routers
