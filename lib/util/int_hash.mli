(** The key side shared by {!Int_table} and {!Int_int_table}: where a key
    lives in a power-of-two array of int keys, how a lookup finds it, and
    which entries a removal may shift back.

    A key's home slot is the top [log2 capacity] bits of its product with
    a fixed odd multiplier. A bit of the product depends only on the key's
    bits at or below it, so the top bits depend on all of them, and keys
    aligned to a large power of two still reach every slot; the low bits
    would reach one slot in 2^j for keys that are multiples of 2^j.
    Functions take [shift], which is [63 - log2 capacity], in place of the
    capacity. *)

val empty_key : int
(** [min_int]: marks an empty slot, so a table keeps that key's binding
    in a side cell. *)

val home : int -> int -> int
(** [home k shift] is [k]'s home slot. *)

val mask_of : int -> int
(** [mask_of shift] is the capacity minus one. *)

val shift_for : int -> int
(** The shift of the smallest capacity, at least 16, that holds [size]
    bindings at most half full. *)

val probe_find : int array -> int -> int -> int -> int
(** [probe_find keys mask k i] is the slot holding [k], probing linearly
    from slot [i], or [-1] at the first empty slot. *)

val movable : int -> int -> int -> hole:int -> int -> bool
(** [movable key shift mask ~hole j]: the entry [key] at slot [j] may move
    back into the empty slot [hole] without leaving its probe run. *)

val max_displacement : int array -> int -> int
(** The largest distance from a bound key's home slot to its slot. A walk
    of the array. *)
