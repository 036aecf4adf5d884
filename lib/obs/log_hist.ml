(* HDR-style log-bucketed histogram over non-negative integers.

   Values below [2^sub_bits] get one bucket each (exact); above that,
   every octave is cut into [2^(sub_bits-1)] sub-buckets, so a recorded
   value is over-reported by at most a factor of [1 + 2^(1-sub_bits)].
   Recording is a bounded handful of shifts plus one array increment —
   no allocation, O(1) — which is what lets the sinks sit on the hot
   allocation path. *)

type t = {
  sub_bits : int;
  counts : int array;
  mutable total : int;
  mutable sum : int;
  mutable max_value : int;
  mutable min_value : int;
}

(* Bucket geometry: with n = 2^sub_bits, values < n map to themselves;
   a larger value of bit length L shifts right by s = L - sub_bits, landing
   its top [sub_bits] bits q in [n/2, n). Bucket = base(s) + (q - n/2). *)

let index ~sub_bits (v : int) =
  let v = if v < 0 then 0 else v in
  let n = 1 lsl sub_bits in
  if v < n then v
  else begin
    let s = Dmm_util.Size.bit_length v - sub_bits in
    let half = n lsr 1 in
    n + ((s - 1) * half) + (v lsr s) - half
  end

(* Largest value mapping to bucket [i]: the inclusive upper bound used as
   the bucket's representative, so percentile queries never under-report. *)
let upper_bound ~sub_bits i =
  let n = 1 lsl sub_bits in
  if i < n then i
  else begin
    let half = n lsr 1 in
    let j = i - n in
    let s = (j / half) + 1 in
    let q = half + (j mod half) in
    ((q + 1) lsl s) - 1
  end

let bucket_count ~sub_bits =
  (* Enough buckets for any value up to max_int (62 significant bits). *)
  index ~sub_bits max_int + 1

(* Worst-case relative over-report: one bucket's width over its lower
   bound. *)
let relative_error ~sub_bits = 2.0 ** float_of_int (1 - sub_bits)

let create ?(sub_bits = 5) () =
  if sub_bits < 1 || sub_bits > 16 then invalid_arg "Log_hist.create: sub_bits";
  {
    sub_bits;
    counts = Array.make (bucket_count ~sub_bits) 0;
    total = 0;
    sum = 0;
    max_value = 0;
    min_value = max_int;
  }

let record t (v : int) =
  let v = if v < 0 then 0 else v in
  let i = index ~sub_bits:t.sub_bits v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- Dmm_util.Size.sat_add t.sum v;
  if v > t.max_value then t.max_value <- v;
  if v < t.min_value then t.min_value <- v

let count t = t.total
let sum t = t.sum
let max_value t = if t.total = 0 then 0 else t.max_value
let min_value t = if t.total = 0 then 0 else t.min_value
let mean t = if t.total = 0 then 0.0 else float_of_int t.sum /. float_of_int t.total
let sub_bits t = t.sub_bits

(* Same rank convention as [Dmm_util.Histogram.percentile]: the smallest
   bucket whose cumulative count reaches [p * total]. The exact percentile
   of the recorded multiset lands inside that bucket, so the returned
   upper bound brackets it from above within [relative_error]. *)
let percentile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Log_hist.percentile: p out of range";
  if t.total = 0 then 0
  else if p >= 1.0 then t.max_value
  else begin
    let target = p *. float_of_int t.total in
    let n = Array.length t.counts in
    let rec scan i acc =
      if i >= n then t.max_value
      else begin
        let acc = acc + t.counts.(i) in
        if t.counts.(i) > 0 && float_of_int acc >= target then
          min (upper_bound ~sub_bits:t.sub_bits i) t.max_value
        else scan (i + 1) acc
      end
    in
    scan 0 0
  end

let iter_buckets f t =
  Array.iteri
    (fun i c -> if c > 0 then f ~upper:(upper_bound ~sub_bits:t.sub_bits i) ~count:c)
    t.counts

let pp ppf t =
  if t.total = 0 then Format.fprintf ppf "empty"
  else
    Format.fprintf ppf "n=%d min=%d p50=%d p90=%d p99=%d max=%d mean=%.1f" t.total
      (min_value t) (percentile t 0.5) (percentile t 0.9) (percentile t 0.99)
      (max_value t) (mean t)
