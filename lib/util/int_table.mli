(** Open-addressing hash table for int keys (heap addresses); any [int]
    is a key.

    A drop-in replacement for [(int, 'a) Hashtbl.t] on allocator hot paths:
    linear probing over two flat arrays, no allocation per operation. Unlike
    [Hashtbl] there is one binding per key ([replace] semantics only), and
    iteration order is unspecified — callers that expose ordering must sort,
    exactly as the managers already do for [Hashtbl]. *)

type 'a t

val create : ?size:int -> 'a -> 'a t
(** [create ?size dummy] — [dummy] parks in empty value slots; it is never
    returned from lookups. *)

val length : 'a t -> int
(** Counts the bindings: a walk of the table, O(capacity). *)

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

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
