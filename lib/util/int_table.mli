(** Open-addressing hash table for int keys (heap addresses); any [int]
    is a key. For values that are pointers: where the values are ints,
    use {!Int_int_table}, which keeps them in an [int array], so a store
    skips the write barrier this table's ['a array] pays on every insert,
    overwrite and backward shift.

    A drop-in replacement for [(int, 'a) Hashtbl.t] on allocator hot paths:
    linear probing over two flat arrays, no allocation per operation. Unlike
    [Hashtbl] there is one binding per key ([replace] semantics only), and
    iteration order is unspecified — callers that expose ordering must sort,
    exactly as the managers already do for [Hashtbl].

    The key side is {!Int_hash}'s: a key's home slot is the top bits of
    its product with a fixed odd multiplier, so keys aligned to a power of
    two spread over the whole table, and the same operations always leave
    the same layout. Removing a key shifts the rest of its probe run back
    one slot at a time (backward-shift deletion): no deleted markers build
    up, and the table rehashes only when it grows, doubling once the
    bindings pass half its capacity. *)

type 'a t

val create : ?size:int -> 'a -> 'a t
(** [create ?size dummy] — [dummy] parks in empty value slots; it is never
    returned from lookups. *)

val length : 'a t -> int
(** The number of bindings, kept as a count: O(1). *)

val dummy : 'a t -> 'a
(** The value passed to [create]. Useful as a physically-distinct miss
    sentinel for [find] on hot paths: [find t k ~default:(dummy t)] followed
    by a [==] check avoids boxing an option. *)

val mem : 'a t -> int -> bool
val find_opt : 'a t -> int -> 'a option

val find : 'a t -> int -> default:'a -> 'a
(** Option-free lookup for hot paths. *)

val replace : 'a t -> int -> 'a -> unit
(** Insert or overwrite. *)

val remove : 'a t -> int -> unit
(** No-op when the key is absent. *)

val take : 'a t -> int -> default:'a -> 'a
(** [take t k ~default] removes [k]'s binding and returns its value, or
    returns [default] when [k] is absent. One probe does both, where
    [find] then [remove] probe twice. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val max_displacement : 'a t -> int
(** The largest distance from a bound key's home slot to its slot, so a
    lookup reads at most one slot more than this. A walk of the table,
    O(capacity); for tests and measurements. *)
