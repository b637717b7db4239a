(* Layouts and the rule that picks one in rtts.mli. A 12-byte value
   starts with a tag byte, so its length is odd and a 6-byte value's is
   even. Reads use the compiler's string load primitives directly, so
   the loops below allocate nothing. *)

external get16 : string -> int -> int = "%caml_string_get16"
external get32 : string -> int -> int32 = "%caml_string_get32"
external get64 : string -> int -> int64 = "%caml_string_get64"

type t = string

let tag = '\x01'
let empty = ""
let wide t = String.length t land 1 = 1
let length t = if wide t then String.length t / 12 else String.length t / 6
let is_empty t = String.length t = 0

(* sample [i] in each layout; inlined, so that no RTT is boxed *)
let[@inline] compact_vp t i = get16 t (i * 6)
let[@inline] compact_ms t i = float_of_int (Int32.to_int (get32 t ((i * 6) + 2))) /. 1e4
let[@inline] wide_vp t i = Int32.to_int (get32 t ((i * 12) + 1))
let[@inline] wide_ms t i = Int64.float_of_bits (get64 t ((i * 12) + 5))

(* sample [i] of a value whose layout is [w], true for 12 bytes *)
let[@inline] vp_at w t i = if w then wide_vp t i else compact_vp t i
let[@inline] ms_at w t i = if w then wide_ms t i else compact_ms t i
let vp t i = vp_at (wide t) t i

type builder = { buf : Buffer.t; mutable wide : bool }

let builder () = { buf = Buffer.create 1024; wide = false }
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

let add_compact b vp k =
  Buffer.add_uint16_ne b.buf vp;
  Buffer.add_int32_ne b.buf (Int32.of_int k)

let add_wide b vp ms =
  Buffer.add_int32_ne b.buf (Int32.of_int vp);
  Buffer.add_int64_ne b.buf (Int64.bits_of_float ms)

(* rewrites the 6-byte samples added so far in the 12-byte layout *)
let widen b =
  let s = Buffer.contents b.buf in
  Buffer.clear b.buf;
  Buffer.add_char b.buf tag;
  b.wide <- true;
  for i = 0 to (String.length s / 6) - 1 do
    add_wide b (compact_vp s i) (compact_ms s i)
  done

let add b vp ms =
  if vp < Int32.to_int Int32.min_int || vp > Int32.to_int Int32.max_int then
    invalid_arg (Printf.sprintf "VP id %d does not fit in 32 bits" vp);
  let k = if b.wide || vp land 0xffff <> vp then -1 else ticks ms in
  if k >= 0 then add_compact b vp k
  else begin
    if not b.wide then widen b;
    add_wide b vp ms
  end

let add_ticks b vp k =
  if (not b.wide) && vp land 0xffff = vp && k land max_ticks = k then add_compact b vp k
  else add b vp (float_of_int k /. 1e4)

let contents b = Buffer.contents b.buf

let clear b =
  Buffer.clear b.buf;
  b.wide <- false

let build f =
  let b = builder () in
  f b;
  contents b

let of_list l = build (fun b -> List.iter (fun (vp, ms) -> add b vp ms) l)

let to_list t =
  let w = wide t in
  List.init (length t) (fun i -> (vp_at w t i, ms_at w t i))

let iter f t =
  let w = wide t in
  for i = 0 to length t - 1 do
    f (vp_at w t i) (ms_at w t i)
  done

let for_all f t =
  let w = wide t and n = length t in
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
  let w = wide t and n = length t in
  let rec go i =
    if i >= n then None else if vp_at w t i = id then Some (ms_at w t i) else go (i + 1)
  in
  go 0

let min t =
  if is_empty t then None
  else begin
    let w = wide t in
    let best = ref 0 in
    for i = 1 to length t - 1 do
      if ms_at w t i < ms_at w t !best then best := i
    done;
    Some (vp_at w t !best, ms_at w t !best)
  end

(* one loop per layout; a 6-byte sample's id is never negative *)
let first_below t ~slack bound =
  let n = length t and nb = Float.Array.length bound in
  if wide t then
    let rec go i =
      if i >= n then -1
      else
        let v = wide_vp t i in
        if v < 0 || v >= nb || not (wide_ms t i +. slack >= Float.Array.get bound v) then i
        else go (i + 1)
    in
    go 0
  else
    let rec go i =
      if i >= n then -1
      else
        let v = compact_vp t i in
        if v >= nb || not (compact_ms t i +. slack >= Float.Array.get bound v) then i
        else go (i + 1)
    in
    go 0
