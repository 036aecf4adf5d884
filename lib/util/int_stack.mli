(** Growable stack of [int]s over one flat array: the free lists and
    chunk lists of the baseline allocators. [push] allocates only when
    the array doubles; [pop] and [top] allocate nothing. *)

type t

val create : unit -> t
(** An empty stack with room for 16 values. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> int -> unit

val pop : t -> int
(** Removes and returns the top value. Raises [Invalid_argument] when
    empty. *)

val clear : t -> unit
