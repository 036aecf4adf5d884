(** A table from trace ids to ints over one growable flat array: the
    replay's live addresses and the recorder's live sizes. Trace ids are
    dense from 0 or 1, so an array indexed by id beats a hash table;
    [find] and [set] allocate nothing unless the array grows. *)

type t

val create : absent:int -> int -> t
(** [create ~absent hint] is an empty table with room for ids below
    [hint] (at least 16); [absent] is what {!find} returns for an id
    never set, and the value that marks an id free again. *)

val find : t -> int -> int
(** The value set for an id, or [absent]. Any int is accepted. *)

val set : t -> int -> int -> unit
(** Grows the array to [max (2n) (id + 1)] when [id] is past it. Raises
    [Invalid_argument] for a negative id, or one too large to index an
    array (from [Sys.max_array_length] up to [max_int]). *)
