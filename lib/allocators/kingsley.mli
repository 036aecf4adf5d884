(** Kingsley power-of-two segregated-freelist allocator (the BSD/Windows
    manager of the paper's comparison).

    Requests are rounded up, header included, to the next power of two;
    each class has its own LIFO free list fed by carving page-granular
    slabs. Blocks are never split, never coalesced and never returned to
    the system — the classic trade: O(1) operations, poor footprint on
    variable-size workloads. *)

type config = {
  header_bytes : int;  (** per-block header (default 4) *)
  min_class : int;  (** smallest block class, a power of two (default 16) *)
  chunk_bytes : int;  (** slab request granularity (default 4096) *)
}

val default_config : config

type t

val create : ?config:config -> Dmm_vmem.Address_space.t -> t
(** Raises [Invalid_argument] on a non-power-of-two [min_class] or
    non-positive sizes. The space's probe receives the accounting stream
    (alloc/free/fit-scan; this allocator never splits, coalesces or
    trims). The space must be this allocator's alone: its break is the
    footprint. *)

val alloc : t -> int -> int
val free : t -> int -> unit
val current_footprint : t -> int
val max_footprint : t -> int
val metrics : t -> Dmm_core.Metrics.snapshot

val breakdown : t -> Dmm_core.Metrics.breakdown
(** Decompose the current footprint (Section 4.1 factors). *)

val class_of_request : t -> int -> int
(** Gross power-of-two class serving a request (exposed for tests). *)

val allocator : t -> Dmm_core.Allocator.t
