let decile c =
  let i = int_of_float (c *. 10.0) in
  if i < 0 then 0 else if i > 9 then 9 else i

(* the smallest double the decile rule maps to [k]: a few ulps from k/10 *)
let decile_edge k =
  let rec up x = if decile x < k then up (Float.succ x) else x in
  let rec down x = if decile (Float.pred x) = k then down (Float.pred x) else x in
  down (up (float_of_int k /. 10.0))

(* Upper bucket edges, shared by every histogram. Bucket 0 holds values
   <= 0 (and NaN), bucket j >= 1 holds [edges.(j-1), edges.(j)) (bucket
   1 without 0 itself), and the last bucket is the overflow [2^20, inf). *)
let edges =
  let grid =
    List.init ((30 * 16) + 1) (fun i ->
        Float.ldexp (1.0 +. (float_of_int (i mod 16) /. 16.0)) ((i / 16) - 10))
  in
  let deciles = List.init 9 (fun k -> decile_edge (k + 1)) in
  Array.of_list (0.0 :: List.sort_uniq Float.compare (grid @ deciles))

let nbuckets = Array.length edges + 1
let upper j = if j < Array.length edges then edges.(j) else Float.infinity

(* binary search for the first edge above [v] *)
let index v =
  let rec go lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if edges.(mid) <= v then go mid hi else go lo mid
  in
  if v > 0.0 then go 0 (Array.length edges) else 0

(* every decile edge is a bucket edge and the rule is monotone, so each
   bucket lies inside one decile *)
let bucket_decile = Array.init nbuckets (fun j -> decile edges.(max 0 (j - 1)))

type stats = { n : int; p50 : float; p95 : float; p99 : float; max : float; sum : float }

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;  (* 10^-6 units: integer addition is order-free *)
  mutable max : float;
}

let create () =
  { counts = Array.make nbuckets 0; n = 0; sum = 0; max = Float.neg_infinity }

let record t v =
  let j = index v in
  t.counts.(j) <- t.counts.(j) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + Float.to_int (Float.round (v *. 1e6));
  if v > t.max then t.max <- v

let merge_into ~into t =
  if t.n > 0 then begin
    Array.iteri (fun j c -> into.counts.(j) <- into.counts.(j) + c) t.counts;
    into.n <- into.n + t.n;
    into.sum <- into.sum + t.sum;
    if t.max > into.max then into.max <- t.max
  end

let clear t =
  Array.fill t.counts 0 nbuckets 0;
  t.n <- 0;
  t.sum <- 0;
  t.max <- Float.neg_infinity

(* nearest rank, read as the upper edge of its bucket, clamped to max *)
let percentile t p =
  let rank = max 1 (min t.n (int_of_float (ceil (p /. 100.0 *. float_of_int t.n)))) in
  let rec go j cum =
    let cum = cum + t.counts.(j) in
    if cum >= rank then j else go (j + 1) cum
  in
  Float.min t.max (upper (go 0 0))

let stats t =
  if t.n = 0 then { n = 0; p50 = 0.0; p95 = 0.0; p99 = 0.0; max = 0.0; sum = 0.0 }
  else
    {
      n = t.n;
      p50 = percentile t 50.0;
      p95 = percentile t 95.0;
      p99 = percentile t 99.0;
      max = t.max;
      sum = float_of_int t.sum /. 1e6;
    }

let deciles t =
  let m = Array.make 10 0 in
  Array.iteri (fun j c -> m.(bucket_decile.(j)) <- m.(bucket_decile.(j)) + c) t.counts;
  Array.map (fun c -> if t.n = 0 then 0.0 else float_of_int c /. float_of_int t.n) m
