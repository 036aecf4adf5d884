let align_up n a =
  if a <= 0 then invalid_arg "Size.align_up: non-positive alignment";
  if n < 0 then invalid_arg "Size.align_up: negative size";
  (* [n + a - 1] would wrap negative. *)
  if n > max_int - (a - 1) then invalid_arg "Size.align_up: size past max_int";
  (n + a - 1) / a * a

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* [max_int - b] cannot wrap for [b >= 0], so one compare decides. *)
let[@inline] sat_add a b = if a > max_int - b then max_int else a + b

let bit_length n =
  (* Halve the range six times instead of shifting one bit at a time:
     the sinks take this per event. *)
  let v = ref n and b = ref 0 in
  if !v >= 1 lsl 32 then begin
    v := !v lsr 32;
    b := 32
  end;
  if !v >= 1 lsl 16 then begin
    v := !v lsr 16;
    b := !b + 16
  end;
  if !v >= 1 lsl 8 then begin
    v := !v lsr 8;
    b := !b + 8
  end;
  if !v >= 1 lsl 4 then begin
    v := !v lsr 4;
    b := !b + 4
  end;
  if !v >= 1 lsl 2 then begin
    v := !v lsr 2;
    b := !b + 2
  end;
  if !v >= 2 then begin
    v := !v lsr 1;
    b := !b + 1
  end;
  !b + !v

(* [pow2_ceil] is defined through this, so the messages keep its name.
   2^62 is past max_int, so 2^61 is the largest power of two an int
   holds. For n >= 2, [n - 1] needs [k] bits exactly when
   2^(k-1) < n <= 2^k. *)
let log2_ceil n =
  if n < 0 then invalid_arg "Size.pow2_ceil: negative size";
  if n > 1 lsl 61 then invalid_arg "Size.pow2_ceil: size above 2^61";
  if n <= 1 then 0 else bit_length (n - 1)

let pow2_ceil n = 1 lsl log2_ceil n

let pow2_class n = if n <= 1 then 1 else if n > 1 lsl 61 then max_int else pow2_ceil n

let kib n = n * 1024
let mib n = n * 1024 * 1024

let pp_bytes ppf n =
  let f = float_of_int n in
  if n >= 1024 * 1024 then Format.fprintf ppf "%.2f MiB" (f /. 1048576.0)
  else if n >= 1024 then Format.fprintf ppf "%.2f KiB" (f /. 1024.0)
  else Format.fprintf ppf "%d B" n
