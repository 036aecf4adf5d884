(** An append-only sequence kept in fixed-size chunks, for a generator
    that does not know how many elements it will make: appending never
    copies an element already stored, and {!gather} copies each one
    once, into an array of exactly their number. A chunk is a value of
    the caller's own type, typically a record of parallel arrays (one
    per field of an element), so each field stays unboxed. *)

type 'c t

val size : int
(** Slots per chunk, 4096. *)

val create : (int -> 'c) -> 'c t
(** [create make] starts an empty sequence; [make n] returns a fresh
    chunk of [n] slots per array, and is called for the first chunk and
    each time the current one fills. *)

val slot : 'c t -> int
(** Claims the next element's slot: the index in [current t] where the
    caller then stores its fields. A full chunk is kept as it is and a
    new one started first, so call {!current} after [slot]. *)

val current : 'c t -> 'c
(** The chunk that holds the latest slot. *)

val length : 'c t -> int
(** Elements appended so far. *)

val gather :
  'c t -> sub:('a -> int -> int -> 'a) -> concat:('a list -> 'a) -> ('c -> 'a) -> 'a
(** [gather t ~sub ~concat column] is the [column] of every element so
    far, in order, copied once: [concat] of the full chunks' columns and
    the [sub] of the current one that is filled ([Array.sub] and
    [Array.concat] for an array column). The sequence is left as it was,
    and can keep growing. *)
