(* Layouts and the rule that picks one in rtts.mli. A 4-byte value has
   no tag, so its length is a multiple of 4; a 6- or 12-byte value
   starts with a tag byte holding its width, so its length is odd.
   Reads use the compiler's string load primitives directly, so the
   loops below allocate nothing. *)

external get16 : string -> int -> int = "%caml_string_get16"
external get32 : string -> int -> int32 = "%caml_string_get32"
external get64 : string -> int -> int64 = "%caml_string_get64"

type t = string

let empty = ""

(* bytes per sample: 4, 6 or 12 *)
let[@inline] width t = if String.length t land 3 = 0 then 4 else Char.code (String.unsafe_get t 0)
let length t = String.length t / width t
let is_empty t = String.length t = 0

(* sample [i] in each layout; inlined, so that no RTT is boxed. A
   4-byte sample is one 32-bit word: the VP id in its low 8 bits, the
   tick count in the high 24. *)
let[@inline] word t i = Int32.to_int (get32 t (i * 4)) land 0xffff_ffff
let[@inline] ms_of_ticks k = float_of_int k /. 1e4
let[@inline] vp4 t i = word t i land 0xff
let[@inline] ms4 t i = ms_of_ticks (word t i lsr 8)
let[@inline] vp6 t i = get16 t ((i * 6) + 1)
let[@inline] ms6 t i = ms_of_ticks (Int32.to_int (get32 t ((i * 6) + 3)))
let[@inline] vp12 t i = Int32.to_int (get32 t ((i * 12) + 1))
let[@inline] ms12 t i = Int64.float_of_bits (get64 t ((i * 12) + 5))

(* sample [i] of a value of width [w] *)
let[@inline] vp_at w t i = if w = 4 then vp4 t i else if w = 6 then vp6 t i else vp12 t i
let[@inline] ms_at w t i = if w = 4 then ms4 t i else if w = 6 then ms6 t i else ms12 t i
let vp t i = vp_at (width t) t i

type builder = { buf : Buffer.t; mutable width : int }

let builder () = { buf = Buffer.create 1024; width = 4 }
let max_ticks = 0x7fff_ffff

(* [k] when [ms] is bit for bit [float k /. 1e4] for some
   0 <= k <= max_ticks, else -1. Such a [k] is [ms *. 1e4] rounded:
   the product is within k * 2^-52 < 2^-21 of it. *)
let ticks ms =
  let x = Float.round (ms *. 1e4) in
  if x >= 0.0 && x <= float_of_int max_ticks then
    let k = int_of_float x in
    if Int64.equal (Int64.bits_of_float (float_of_int k /. 1e4)) (Int64.bits_of_float ms) then k
    else -1
  else -1

(* the bounds tests of the two tick layouts; a negative [vp] or [k]
   shifts to a nonzero value, so -1 (no tick count) fits neither *)
let[@inline] fits4 vp k = (vp lsr 8) lor (k lsr 24) = 0
let[@inline] fits6 vp k = (vp lsr 16) lor (k lsr 31) = 0
let add4 b vp k = Buffer.add_int32_ne b.buf (Int32.of_int (vp lor (k lsl 8)))

let add6 b vp k =
  Buffer.add_uint16_ne b.buf vp;
  Buffer.add_int32_ne b.buf (Int32.of_int k)

let add12 b vp ms =
  Buffer.add_int32_ne b.buf (Int32.of_int vp);
  Buffer.add_int64_ne b.buf (Int64.bits_of_float ms)

(* rewrites the samples added so far at width [w], wider than theirs *)
let widen b w =
  let s = Buffer.contents b.buf and from = b.width in
  Buffer.clear b.buf;
  Buffer.add_char b.buf (Char.chr w);
  b.width <- w;
  for i = 0 to (String.length s / from) - 1 do
    if w = 6 then add6 b (vp4 s i) (word s i lsr 8) else add12 b (vp_at from s i) (ms_at from s i)
  done

let add b vp ms =
  if vp < Int32.to_int Int32.min_int || vp > Int32.to_int Int32.max_int then
    invalid_arg (Printf.sprintf "VP id %d does not fit in 32 bits" vp);
  let k = if b.width = 12 || vp land 0xffff <> vp then -1 else ticks ms in
  let w = if fits4 vp k then 4 else if fits6 vp k then 6 else 12 in
  if w > b.width then widen b w;
  if b.width = 4 then add4 b vp k else if b.width = 6 then add6 b vp k else add12 b vp ms

let add_ticks b vp k =
  if b.width = 4 && fits4 vp k then add4 b vp k
  else if b.width <= 6 && fits6 vp k then begin
    if b.width = 4 then widen b 6;
    add6 b vp k
  end
  else add b vp (ms_of_ticks k)

let contents b = Buffer.contents b.buf

let clear b =
  Buffer.clear b.buf;
  b.width <- 4

let build f =
  let b = builder () in
  f b;
  contents b

let of_list l = build (fun b -> List.iter (fun (vp, ms) -> add b vp ms) l)

let to_list t =
  let w = width t in
  List.init (length t) (fun i -> (vp_at w t i, ms_at w t i))

let iter f t =
  let w = width t in
  for i = 0 to length t - 1 do
    f (vp_at w t i) (ms_at w t i)
  done

let for_all f t =
  let w = width t and n = length t in
  let rec go i = i >= n || (f (vp_at w t i) (ms_at w t i) && go (i + 1)) in
  go 0

let filter f t = build (fun b -> iter (fun vp ms -> if f vp ms then add b vp ms) t)

let map f t =
  build (fun b ->
      iter
        (fun vp ms ->
          let vp, ms = f vp ms in
          add b vp ms)
        t)

let find_opt t id =
  let w = width t and n = length t in
  let rec go i =
    if i >= n then None else if vp_at w t i = id then Some (ms_at w t i) else go (i + 1)
  in
  go 0

let min t =
  if is_empty t then None
  else begin
    let w = width t in
    let best = ref 0 in
    for i = 1 to length t - 1 do
      if ms_at w t i < ms_at w t !best then best := i
    done;
    Some (vp_at w t !best, ms_at w t !best)
  end

(* one loop per layout, each a function of its own, so that a call
   allocates no closure either; a 4- or 6-byte sample's id is never
   negative, and a 4-byte one is read as one word *)
let rec below4 t ~slack bound nb n i =
  if i >= n then -1
  else
    let s = word t i in
    let v = s land 0xff in
    if v >= nb || not (ms_of_ticks (s lsr 8) +. slack >= Float.Array.get bound v) then i
    else below4 t ~slack bound nb n (i + 1)

let rec below6 t ~slack bound nb n i =
  if i >= n then -1
  else
    let v = vp6 t i in
    if v >= nb || not (ms6 t i +. slack >= Float.Array.get bound v) then i
    else below6 t ~slack bound nb n (i + 1)

let rec below12 t ~slack bound nb n i =
  if i >= n then -1
  else
    let v = vp12 t i in
    if v < 0 || v >= nb || not (ms12 t i +. slack >= Float.Array.get bound v) then i
    else below12 t ~slack bound nb n (i + 1)

let first_below t ~slack bound =
  let n = length t and nb = Float.Array.length bound in
  match width t with
  | 4 -> below4 t ~slack bound nb n 0
  | 6 -> below6 t ~slack bound nb n 0
  | _ -> below12 t ~slack bound nb n 0
