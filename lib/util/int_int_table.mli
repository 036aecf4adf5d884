(** {!Int_table} with [int] values: open addressing over an [int array] of
    keys and an [int array] of values, for the per-event tables whose
    values are plain ints (requested sizes, stack indices, span slots,
    region ids, counts). Any [int] is a key.

    The values are ints so that a store is a plain store: a store into
    {!Int_table}'s ['a array] calls the write barrier, and a read tests
    for a float array, whatever the values are. The key side — home slot,
    probe, backward-shift deletion, growth at half full — is
    {!Int_hash}'s, as in {!Int_table}, so the same operations leave the
    same layout and iterate in the same order in both tables. One binding
    per key; iteration order is unspecified. No operation allocates
    except growth. *)

type t

val create : ?size:int -> unit -> t
(** Room for [size] bindings (default 16) before the table first
    doubles. *)

val length : t -> int
(** The number of bindings, kept as a count: O(1). *)

val find : t -> int -> default:int -> int
(** The value bound to the key, or [default]. *)

val replace : t -> int -> int -> unit
(** Insert or overwrite. *)

val remove : t -> int -> unit
(** No-op when the key is absent. *)

val take : t -> int -> default:int -> int
(** [take t k ~default] removes [k]'s binding and returns its value, or
    returns [default] when [k] is absent, in one probe. *)

val iter : (int -> int -> unit) -> t -> unit
val fold : (int -> int -> 'b -> 'b) -> t -> 'b -> 'b

val max_displacement : t -> int
(** The largest distance from a bound key's home slot to its slot, so a
    lookup reads at most one slot more than this. A walk of the table,
    O(capacity); for tests and measurements. *)
