(** Allocation traces: growable event sequences with validation and a
    plain-text on-disk format. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the backing array (default 1024); the trace still
    grows on demand past it. *)

val add : t -> Event.t -> unit
val length : t -> int
val get : t -> int -> Event.t
val iter : (Event.t -> unit) -> t -> unit
val iteri : (int -> Event.t -> unit) -> t -> unit
val of_list : Event.t list -> t
val to_list : t -> Event.t list

val interleave : ?seed:int -> t list -> t
(** Merge traces as concurrently running applications (the paper's other
    source of unpredictability: "the number of applications running
    concurrently defined by the user"). Each trace's internal event order
    is preserved; the interleaving is pseudo-random, weighted by remaining
    length; block ids are remapped to stay trace-unique, and phase markers
    are likewise remapped per source (first-seen order, injective across
    sources), so any phase ids are accepted. Raises [Invalid_argument] if
    a source frees an id it never allocated. *)

val validate : t -> (unit, string) result
(** Checks the live discipline: ids allocated at most once, frees only of
    live ids, positive sizes. Ids must also lie in [0, length t]: every
    generator numbers its blocks densely, and a replay indexes an array
    by id. *)

val peak_live_count : t -> int
(** Maximum number of simultaneously live ids anywhere in the trace — the
    natural pre-size for replay and manager registries. Allocating a live
    id again and freeing a non-live id change nothing; a negative id
    raises [Invalid_argument] ({!validate} rejects it). *)

val live_at_end : t -> int
(** Number of blocks never freed. *)

val alloc_count : t -> int
val free_count : t -> int

val save : t -> string -> unit
(** Write to a file, one event per line. *)

val load : string -> (t, string) result
(** Read a file written by {!save}. Every error is one line that names
    the file, [PATH: REASON] or [PATH: line N: REASON]; an unreadable
    path, a directory included, is an [Error], not an exception. The
    result is not {!validate}d. *)
