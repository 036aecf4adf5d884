(* The key side of the two open-addressing int tables, [Int_table] (any
   value) and [Int_int_table] (int values): the home slot, the probe for a
   key, the backward-shift test and the displacement walk. Both tables keep
   their keys in an [int array] whose capacity is a power of two, with
   [empty_key] marking an empty slot, and both pass these functions the
   shift [63 - log2 capacity] instead of the capacity. *)

let empty_key = min_int

(* The xorshift64* multiplier, odd and 62 bits wide. *)
let multiplier = 0x2545F4914F6CDD1D

let[@inline] home k shift = (k * multiplier) lsr shift

(* [-1] is 63 one bits, so this is capacity - 1. *)
let[@inline] mask_of shift = -1 lsr shift

let shift_for size =
  let cap = ref 16 and bits = ref 4 in
  while !cap < size * 2 do
    cap := !cap * 2;
    incr bits
  done;
  63 - !bits

let rec probe_find keys mask k i =
  let key = Array.unsafe_get keys i in
  if key = k then i else if key = empty_key then -1 else probe_find keys mask k ((i + 1) land mask)

(* The entry [key] at [j] may move into [hole] when its home is not
   cyclically in (hole, j], that is when it sits at least [j - hole] slots
   past its home. *)
let[@inline] movable key shift mask ~hole j = (j - home key shift) land mask >= (j - hole) land mask

let max_displacement keys shift =
  let mask = mask_of shift in
  let worst = ref 0 in
  Array.iteri
    (fun i k -> if k <> empty_key then worst := Int.max !worst ((i - home k shift) land mask))
    keys;
  !worst
