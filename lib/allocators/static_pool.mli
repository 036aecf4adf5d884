(** Static worst-case allocation — the intro's strawman.

    The paper motivates DM management by what embedded designers otherwise
    do: reserve, at design time, worst-case capacity for every data type.
    This manager models that: a fixed set of (power-of-two slot size,
    capacity) pools, all reserved from the system up front; requests are
    served from their class's slot array. The footprint is flat at the
    reserved total regardless of the actual load.

    When a class's capacity is exhausted the manager records an
    {e overflow} and serves the request from emergency memory — the
    real-world analogue is a dropped packet or a crashed task, the paper's
    "static solutions will not work in extreme cases of input data". The
    overflow counters let experiments quantify how a sizing derived from
    one input behaves on another. *)

type t

val create : ?margin:float -> Dmm_vmem.Address_space.t -> (int * int) list -> t
(** [create space capacities] reserves [capacity] slots for each
    [(slot_size, capacity)] pair (slot sizes must be distinct positive
    powers of two; capacities non-negative). [margin] scales every
    capacity (default 1.0). Requests larger than the largest slot size
    always overflow. The space's probe receives the accounting stream.
    The space must be this manager's alone: its break is the footprint. *)

val alloc : t -> int -> int
val free : t -> int -> unit

val reserved_bytes : t -> int
(** The design-time reservation: the static footprint. *)

val overflow_allocs : t -> int
(** Requests that did not fit their class's reserved capacity. *)

val overflow_bytes : t -> int
(** Emergency memory obtained for overflows. It is never recycled, so
    this is also its peak. *)

val current_footprint : t -> int
val max_footprint : t -> int
val metrics : t -> Dmm_core.Metrics.snapshot

val breakdown : t -> Dmm_core.Metrics.breakdown

val allocator : t -> Dmm_core.Allocator.t
