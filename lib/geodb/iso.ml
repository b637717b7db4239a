let countries =
  [
    ("ad", "andorra"); ("ae", "united arab emirates"); ("ar", "argentina");
    ("at", "austria"); ("au", "australia"); ("be", "belgium");
    ("bg", "bulgaria"); ("bh", "bahrain"); ("br", "brazil");
    ("ca", "canada"); ("ch", "switzerland"); ("cl", "chile");
    ("cn", "china"); ("co", "colombia"); ("cr", "costa rica");
    ("cz", "czechia"); ("de", "germany"); ("dk", "denmark");
    ("ec", "ecuador"); ("ee", "estonia"); ("eg", "egypt");
    ("es", "spain"); ("fi", "finland"); ("fr", "france");
    ("gb", "united kingdom"); ("gr", "greece"); ("hk", "hong kong");
    ("hr", "croatia"); ("hu", "hungary"); ("id", "indonesia");
    ("ie", "ireland"); ("il", "israel"); ("in", "india");
    ("is", "iceland"); ("it", "italy"); ("jp", "japan");
    ("ke", "kenya"); ("kr", "south korea"); ("lt", "lithuania");
    ("lu", "luxembourg"); ("lv", "latvia"); ("ma", "morocco");
    ("mx", "mexico"); ("my", "malaysia"); ("ng", "nigeria");
    ("nl", "netherlands"); ("no", "norway"); ("np", "nepal");
    ("nz", "new zealand"); ("pa", "panama"); ("pe", "peru");
    ("pg", "papua new guinea"); ("ph", "philippines"); ("pl", "poland");
    ("pt", "portugal"); ("ro", "romania"); ("rs", "serbia");
    ("ru", "russia"); ("sa", "saudi arabia"); ("se", "sweden");
    ("sg", "singapore"); ("si", "slovenia"); ("sk", "slovakia");
    ("th", "thailand"); ("tr", "turkey"); ("tw", "taiwan");
    ("bo", "bolivia"); ("do", "dominican republic"); ("fj", "fiji");
    ("gt", "guatemala"); ("hn", "honduras"); ("jm", "jamaica");
    ("ni", "nicaragua"); ("pr", "puerto rico"); ("py", "paraguay");
    ("sv", "el salvador"); ("kz", "kazakhstan"); ("uz", "uzbekistan");
    ("ge", "georgia"); ("am", "armenia"); ("az", "azerbaijan");
    ("lk", "sri lanka"); ("bd", "bangladesh"); ("pk", "pakistan");
    ("mm", "myanmar"); ("kh", "cambodia"); ("la", "laos");
    ("mn", "mongolia"); ("et", "ethiopia"); ("tz", "tanzania");
    ("ug", "uganda"); ("gh", "ghana"); ("ci", "ivory coast");
    ("sn", "senegal"); ("cm", "cameroon"); ("zm", "zambia");
    ("zw", "zimbabwe"); ("bw", "botswana"); ("na", "namibia");
    ("mz", "mozambique"); ("mu", "mauritius"); ("dz", "algeria");
    ("tn", "tunisia"); ("jo", "jordan"); ("lb", "lebanon");
    ("kw", "kuwait"); ("qa", "qatar"); ("om", "oman");
    ("mt", "malta"); ("cy", "cyprus"); ("mk", "north macedonia");
    ("al", "albania"); ("ba", "bosnia and herzegovina");
    ("md", "moldova"); ("by", "belarus");
    ("ua", "ukraine"); ("us", "united states"); ("uy", "uruguay");
    ("ve", "venezuela"); ("vn", "vietnam"); ("za", "south africa");
  ]

let us_states =
  [
    ("al", "alabama"); ("ak", "alaska"); ("az", "arizona");
    ("ar", "arkansas"); ("ca", "california"); ("co", "colorado");
    ("ct", "connecticut"); ("de", "delaware"); ("dc", "district of columbia");
    ("fl", "florida"); ("ga", "georgia"); ("hi", "hawaii");
    ("id", "idaho"); ("il", "illinois"); ("in", "indiana");
    ("ia", "iowa"); ("ks", "kansas"); ("ky", "kentucky");
    ("la", "louisiana"); ("me", "maine"); ("md", "maryland");
    ("ma", "massachusetts"); ("mi", "michigan"); ("mn", "minnesota");
    ("ms", "mississippi"); ("mo", "missouri"); ("mt", "montana");
    ("ne", "nebraska"); ("nv", "nevada"); ("nh", "new hampshire");
    ("nj", "new jersey"); ("nm", "new mexico"); ("ny", "new york");
    ("nc", "north carolina"); ("nd", "north dakota"); ("oh", "ohio");
    ("ok", "oklahoma"); ("or", "oregon"); ("pa", "pennsylvania");
    ("ri", "rhode island"); ("sc", "south carolina"); ("sd", "south dakota");
    ("tn", "tennessee"); ("tx", "texas"); ("ut", "utah");
    ("vt", "vermont"); ("va", "virginia"); ("wa", "washington");
    ("wv", "west virginia"); ("wi", "wisconsin"); ("wy", "wyoming");
  ]

let ca_provinces =
  [
    ("ab", "alberta"); ("bc", "british columbia"); ("mb", "manitoba");
    ("nb", "new brunswick"); ("nl", "newfoundland and labrador");
    ("ns", "nova scotia"); ("on", "ontario"); ("pe", "prince edward island");
    ("qc", "quebec"); ("sk", "saskatchewan");
  ]

let au_states =
  [
    ("nsw", "new south wales"); ("qld", "queensland");
    ("sa", "south australia"); ("tas", "tasmania"); ("vic", "victoria");
    ("wa", "western australia"); ("act", "australian capital territory");
    ("nt", "northern territory");
  ]

let gb_regions =
  [ ("en", "england"); ("sc", "scotland"); ("wl", "wales"); ("ni", "northern ireland") ]

let canonical_country cc =
  let cc = String.lowercase_ascii cc in
  if cc = "uk" then Some "gb"
  else if List.mem_assoc cc countries then Some cc
  else None

let country_name cc =
  Option.bind (canonical_country cc) (fun c -> List.assoc_opt c countries)

let is_country cc = canonical_country cc <> None

let country_equiv a b =
  match (canonical_country a, canonical_country b) with
  | Some x, Some y -> x = y
  | _ -> false

let states_of = function
  | "us" -> us_states
  | "ca" -> ca_provinces
  | "au" -> au_states
  | "gb" | "uk" -> gb_regions
  | _ -> []

let state_name ~cc code =
  List.assoc_opt (String.lowercase_ascii code) (states_of (String.lowercase_ascii cc))

let all_states =
  List.concat_map
    (fun cc -> List.map (fun (code, name) -> (cc, code, name)) (states_of cc))
    [ "us"; "ca"; "au"; "gb" ]

let is_any_state code =
  List.exists (fun (_, c, _) -> c = String.lowercase_ascii code) all_states
