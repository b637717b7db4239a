(* Hand-built suffix groups for the figure-2 and figure-13 walkthroughs:
   small, carefully shaped hostname sets that exercise specific
   behaviours of the regex generator. *)

module City = Hoiho_geodb.City
module Db = Hoiho_geodb.Db
module Coord = Hoiho_geo.Coord
module Lightrtt = Hoiho_geo.Lightrtt
module Router = Hoiho_itdk.Router
module Vp = Hoiho_itdk.Vp
module Dataset = Hoiho_itdk.Dataset

let db = Db.default ()

let city ?state name cc =
  let squashed = String.concat "" (String.split_on_char ' ' name) in
  match
    List.filter
      (fun c ->
        c.City.cc = cc
        && match state with None -> true | Some st -> c.City.state = Some st)
      (Db.lookup_city_name db squashed)
  with
  | c :: _ -> c
  | [] -> failwith ("fixture city missing: " ^ name)

let vp id c =
  Vp.make ~id ~name:(Printf.sprintf "%s-%s" (City.squashed c) c.City.cc)
    ~city_key:(City.key c) ~coord:c.City.coord

let vps () =
  List.mapi vp
    [
      city "washington" "us" ~state:"dc"; city "chicago" "us" ~state:"il";
      city "los angeles" "us" ~state:"ca"; city "seattle" "us" ~state:"wa";
      city "london" "gb"; city "amsterdam" "nl"; city "frankfurt" "de";
      city "tokyo" "jp"; city "hong kong" "hk"; city "sydney" "au";
      city "sao paulo" "br"; city "new york" "us" ~state:"ny";
    ]

let sound_rtts vps (loc : Coord.t) =
  List.map
    (fun (v : Vp.t) -> (v.Vp.id, (Lightrtt.min_rtt_ms v.Vp.coord loc *. 1.35) +. 1.2))
    vps

let router vps id c hostnames =
  Router.make id ~hostnames
    ~ping_rtts:(Hoiho_itdk.Rtts.of_list (sound_rtts vps c.City.coord))

(* --- figure 13: an alter.net-style suffix mixing three formats --- *)

let alter_net () =
  let vps = vps () in
  let mk = router vps in
  let routers =
    [
      (* IATA format: 0.<iface>.<role>.<iata><n>.alter.net *)
      mk 0 (city "san francisco" "us" ~state:"ca") [ "0.xe-10-0-0.gw1.sfo16.alter.net" ];
      mk 1 (city "new york" "us" ~state:"ny") [ "0.ae5.br1.jfk10.alter.net" ];
      mk 2 (city "tokyo" "jp") [ "0.so-0-1-3.xt1.tko2.alter.net" ];
      mk 3 (city "washington" "us" ~state:"dc") [ "0.ae1.br2.iad8.alter.net" ];
      mk 4 (city "seattle" "us" ~state:"wa") [ "0.ae1.gw3.sea7.alter.net" ];
      mk 5 (city "amsterdam" "nl") [ "0.ae1.br2.ams3.alter.net" ];
      (* CLLI format: 0.<iface>.<clli><junk>-mse<nn>-x-ie<n>.alter.net *)
      mk 6 (city "richmond" "us" ~state:"va") [ "0.af0.rcmdva83-mse01-a-ie1.alter.net" ];
      mk 7 (city "newark" "us" ~state:"nj") [ "0.csi1.nwrknjnb-mse01-b-ie1.alter.net" ];
      mk 8 (city "seattle" "us" ~state:"wa") [ "0.af4.sttlwa22-mse02-a-ie3.alter.net" ];
      (* city-name format: <tok>-<tok>-<num>.<city>.<cc>.alter.net *)
      mk 9 (city "munich" "de") [ "ntwk-dis-00008.munich.de.alter.net" ];
      mk 10 (city "stuttgart" "de") [ "ntwk-dis-00019.stuttgart.de.alter.net" ];
      mk 11 (city "dresden" "de") [ "fa0-1-0.ckh.dresden.de.alter.net" ];
      mk 12 (city "frankfurt" "de") [ "ntwk-disy-2.frankfurt.de.alter.net" ];
    ]
  in
  (Dataset.make ~label:"alter.net fixture" ~routers:(Array.of_list routers)
     ~vps:(Array.of_list vps) (),
   routers)

(* --- figure 2: a 360.net-style suffix with two hostname shapes --- *)

let three_sixty_net () =
  let vps = vps () in
  let mk = router vps in
  let routers =
    [
      (* deep shape: <iface>.<num>.<city>-<n>.360.net *)
      mk 0 (city "beijing" "cn") [ "ae0.380.beijing-1.360.net" ];
      mk 1 (city "shanghai" "cn") [ "xe-1-0-2.377.shanghai-5.360.net" ];
      mk 2 (city "shenzhen" "cn") [ "ae3.401.shenzhen-2.360.net" ];
      mk 3 (city "guangzhou" "cn") [ "ae1.399.guangzhou-1.360.net" ];
      (* shallow shape: <city>-<n>.360.net *)
      mk 4 (city "hong kong" "hk") [ "hongkong-3.360.net" ];
      mk 5 (city "beijing" "cn") [ "beijing-7.360.net" ];
      mk 6 (city "taipei" "tw") [ "taipei-1.360.net" ];
    ]
  in
  (Dataset.make ~label:"360.net fixture" ~routers:(Array.of_list routers)
     ~vps:(Array.of_list vps) (),
   routers)
