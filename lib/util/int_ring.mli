(** First-in first-out queue of [int]s over one circular flat array: the
    DRR scheduler's per-flow packet queues and its ring of active flows.
    [push] allocates only when the array doubles; [pop] and [peek]
    allocate nothing. *)

type t

val create : unit -> t
(** An empty queue with room for 16 values. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> int -> unit
(** Adds a value at the tail. *)

val pop : t -> int
(** Removes and returns the head value. Raises [Invalid_argument] when
    empty. *)

val peek : t -> int -> int
(** [peek t k] is the value [k] places behind the head ([peek t 0] is
    the head), without removing anything. Raises [Invalid_argument]
    unless [0 <= k < length t]. *)
