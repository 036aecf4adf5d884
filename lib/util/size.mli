(** Byte-size arithmetic helpers shared by all allocators. *)

val align_up : int -> int -> int
(** [align_up n a] rounds [n] up to the next multiple of [a]. Raises
    [Invalid_argument] if [a <= 0], [n < 0], or [n > max_int - (a - 1)],
    whose rounding would wrap past [max_int]. *)

val is_power_of_two : int -> bool

val sat_add : int -> int -> int
(** [sat_add a b] is [a + b] for [b >= 0], or [max_int] where that sum
    would pass it: byte sums over untrusted sizes saturate instead of
    wrapping negative. One compare, for per-event use; a negative [b] is
    outside its contract. *)

val pow2_ceil : int -> int
(** Smallest power of two >= [n] (with [pow2_ceil 0 = 1]):
    [1 lsl bit_length (n - 1)] for [n >= 2], in constant time. Raises
    [Invalid_argument] if [n < 0] or [n > 2^61], whose power of two
    would not fit in an [int]. *)

val pow2_class : int -> int
(** Total size class for untrusted sizes (decoded streams): 1 for
    [n <= 1], {!pow2_ceil} up to 2^61, and [max_int] above. Never
    raises. *)

val bit_length : int -> int
(** Bits needed to write a non-negative [n]: 0 for 0, [k] for
    [2^(k-1) <= n < 2^k]. Allocation-free and branch-light, for per-event
    use. *)

val log2_ceil : int -> int
(** [log2_ceil n] is the exponent of [pow2_ceil n]: [bit_length (n - 1)]
    for [n >= 2], 0 below, in constant time. It raises where {!pow2_ceil}
    does, with the same messages. *)

val kib : int -> int
val mib : int -> int

val pp_bytes : Format.formatter -> int -> unit
(** Human-readable byte count, e.g. "1.43 MiB". *)
