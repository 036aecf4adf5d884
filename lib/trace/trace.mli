(** Allocation traces: flat event sequences with validation and a
    plain-text on-disk format.

    A trace is stored flat: one kind byte per event, plus an [int] array
    of ids and an [int] array of sizes, each exactly as long as the
    trace. An allocation is its id and size, a free its id, a phase
    marker its phase number in the id array. The kind has a byte of its
    own, so ids and sizes hold the whole [int] range, and a trace holds
    about 2.1 words per event. The hot readers ({!Replay.run},
    {!Profile_builder.of_trace}, {!peak_live_count}, {!validate}) read
    the arrays in place, without building events, and allocate nothing
    per event; the first three size their id-indexed arrays once, from
    {!id_bound}. A finished trace never changes: a generator appends to
    a {!Builder}, which keeps the events in fixed-size chunks and copies
    each one once, when it builds the trace. The {!Event.t} functions
    build one event per call, for the callers off the hot path. *)

type t

(** An append-only trace under construction. *)
module Builder : sig
  type trace := t

  type t
  (** Events in {!Dmm_util.Chunks}: appending never copies an event
      already recorded, and allocates only a new chunk every
      {!Dmm_util.Chunks.size} events. *)

  val create : unit -> t
  val add : t -> Event.t -> unit
  val add_alloc : t -> id:int -> size:int -> unit
  val add_free : t -> int -> unit

  val add_phase : t -> int -> unit
  (** [add_alloc], [add_free] and [add_phase] append the event that {!add}
      would, without building it. *)

  val build : t -> trace
  (** The events appended so far, copied once into arrays of exactly
      their number: the trace shares nothing with the builder, which
      can keep appending. *)
end

val length : t -> int

val id_bound : t -> int
(** One more than the largest id an allocation event carries, so an
    array of [id_bound t] slots indexed by id holds every allocated id; 0
    when the trace allocates nothing. It saturates at [max_int], which no
    array can be sized to. Negative ids do not raise it. The
    {!Builder} and every constructor keep it, so reading it costs
    nothing. *)

val get : t -> int -> Event.t
(** Raises [Invalid_argument] unless the index is in [\[0, length t)]. *)

val iter : (Event.t -> unit) -> t -> unit
val iteri : (int -> Event.t -> unit) -> t -> unit
val of_list : Event.t list -> t
(** Sized from the list: each event is written once, in place. *)

val to_list : t -> Event.t list

(** {2 Flat reads}

    Event [i] without building it. Each raises [Invalid_argument] unless
    [i] is in [\[0, length t)]. *)

type kind = Alloc | Free | Phase

val kind : t -> int -> kind

val id : t -> int -> int
(** The block id of an allocation or a free, the phase number of a phase
    marker. *)

val size : t -> int -> int
(** The size of an allocation; 0 for a free or a phase marker. *)

val unsafe_kind : t -> int -> kind
val unsafe_id : t -> int -> int

val unsafe_size : t -> int -> int
(** {!kind}, {!id} and {!size} without the bounds check, for a loop whose
    index runs over [\[0, length t)]; outside it the result is
    unspecified. *)

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
    natural pre-size for manager registries. Allocating a live id again
    and freeing a non-live id change nothing. The live set is a byte per
    id below {!id_bound}, so the trace's ids should be dense, as every
    generator's are: a negative id, or an id too large for a [Bytes.t]
    (from [Sys.max_string_length] up to [max_int]), raises
    [Invalid_argument] ({!validate} rejects both). *)

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
