(* Every field is a float, so the record is stored flat and an update
   stores its floats unboxed; the count is exact as a float up to 2^53
   samples. [add] is inlined into [add_int], so feeding an int allocates
   nothing either. *)
type t = {
  mutable count : float;
  mutable mean : float;
  mutable m2 : float;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { count = 0.0; mean = 0.0; m2 = 0.0; total = 0.0; min_v = infinity; max_v = neg_infinity }

let[@inline] add t x =
  let n = t.count +. 1.0 in
  t.count <- n;
  t.total <- t.total +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let add_int t x = add t (float_of_int x)

let count t = int_of_float t.count
let total t = t.total
let mean t = if t.count = 0.0 then 0.0 else t.mean

let variance t = if t.count < 2.0 then 0.0 else t.m2 /. t.count

let stddev t = sqrt (variance t)

let coefficient_of_variation t =
  let m = mean t in
  if m = 0.0 then 0.0 else stddev t /. m

let min_value t =
  if t.count = 0.0 then invalid_arg "Stats.min_value: empty";
  t.min_v

let max_value t =
  if t.count = 0.0 then invalid_arg "Stats.max_value: empty";
  t.max_v

let copy t = { t with count = t.count }

let merge a b =
  if a.count = 0.0 then copy b
  else if b.count = 0.0 then copy a
  else begin
    let n = a.count +. b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.count /. n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.count *. b.count /. n) in
    {
      count = n;
      mean;
      m2;
      total = a.total +. b.total;
      min_v = Float.min a.min_v b.min_v;
      max_v = Float.max a.max_v b.max_v;
    }
  end

let pp ppf t =
  if t.count = 0.0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.2f sd=%.2f min=%.2f max=%.2f" (count t) (mean t) (stddev t)
      t.min_v t.max_v
