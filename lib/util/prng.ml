(* The splitmix64 state is 64 bits, one more than an OCaml [int] holds.
   A [mutable int64] field would box it on every step, so it lives
   unboxed in 8 bytes instead: the step reads it, advances it and writes
   it back without allocating. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

(* splitmix64 core step: advance the state by the golden gamma and
   scramble. Inlined into every draw below, so the draws that return an
   [int] or a [bool] allocate nothing. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let child = Bytes.create 8 in
  Bytes.set_int64_ne child 0 (next_int64 t);
  child

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.to_int (Int64.logand (next_int64 t) (Int64.of_int max_int)) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 uniformly random mantissa bits scaled into [0, bound). The float
   draws are inlined so that a caller that consumes the result as a float
   keeps it unboxed. *)
let[@inline] float t bound =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  let unit = Int64.to_float bits /. 9007199254740992.0 in
  unit *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let[@inline] exponential t rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. float t 1.0 in
  -.log u /. rate

let[@inline] pareto t ~alpha ~xmin =
  if alpha <= 0.0 || xmin <= 0.0 then invalid_arg "Prng.pareto: parameters must be positive";
  let u = 1.0 -. float t 1.0 in
  xmin /. (u ** (1.0 /. alpha))

let[@inline] normal t ~mean ~stddev =
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))

(* Loops over float refs rather than a fold: the sums stay unboxed, and
   they add the weights in the same order, so the pick is unchanged. *)
let choose_weighted t arr =
  let n = Array.length arr in
  if n = 0 then invalid_arg "Prng.choose_weighted: empty array";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. fst arr.(i)
  done;
  if !total <= 0.0 then invalid_arg "Prng.choose_weighted: non-positive total weight";
  let target = float t !total in
  let last = n - 1 in
  let acc = ref 0.0 and chosen = ref last and i = ref 0 in
  while !i < last do
    acc := !acc +. fst arr.(!i);
    if target < !acc then begin
      chosen := !i;
      i := last
    end
    else incr i
  done;
  snd arr.(!chosen)

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
