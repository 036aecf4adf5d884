(** Mutable ordered map from [int] keys to [int] values, for hot paths
    that need the neighbours of a key: the sanitizer's live-range map.

    A treap over one flat [int] array. {!search} finds a key's node and
    both of its neighbours in one descent, and {!replace} binds a key and
    finds its neighbours in one descent; nothing allocates once the array
    has grown to the largest live set. Any [int] is a key.
    Priorities come from a generator seeded once per process, so the
    expected depth is O(log n) whatever order the keys arrive in.

    Results are {e nodes}: non-negative handles to read with {!key} and
    {!value}, or [-1] for none. A node stays valid until its key is
    removed. *)

type t

val create : unit -> t
(** An empty map with room for 16 keys; the array doubles as needed. *)

val length : t -> int

val search : t -> int -> int
(** [search t k] is the node holding [k], or [-1]. Either way it leaves
    the node of the greatest key below [k] in {!pred} and the node of the
    least key above [k] in {!succ} ([-1] where there is none). *)

val pred : t -> int
(** The predecessor node found by the last {!search}, or by the last
    {!replace} that added its key. *)

val succ : t -> int
(** The successor node found likewise. *)

val key : t -> int -> int
val value : t -> int -> int

val replace : t -> int -> int -> int
(** [replace t k v] binds [k] to [v]. When [k] was present it returns its
    node, whose value is now [v], and leaves {!pred} and {!succ} as they
    were; otherwise it returns [-1] and leaves [k]'s neighbours, as
    {!search} would have found them, in {!pred} and {!succ}. *)

val remove : t -> int -> int
(** [remove t k] unlinks [k]'s node and returns it, or [-1] when [k] is
    absent. The removed node's {!key} and {!value} stay readable until the
    next {!replace}. *)

val depth : t -> int
(** Nodes on the longest root-to-leaf path; a walk of the whole tree. *)
