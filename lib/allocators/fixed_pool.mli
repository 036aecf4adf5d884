(** Kenwright fixed-size pool allocator (arXiv 2210.16471), segregated by
    power-of-two class.

    Every block class is a pool whose free list is threaded {e in-band}
    through the blocks themselves: a free block's first 32-bit word in the
    flat arena is the address of the next free block, so alloc and free are
    a single link pop/push — O(1), loop-free, and with no per-block header
    beyond that one word the block owns anyway. Fresh slabs are carved
    lazily behind a bump watermark instead of an initialisation loop.
    Blocks are never split, coalesced or returned to the system. *)

type config = {
  min_class : int;  (** smallest block class, a power of two (default 16) *)
  max_class : int;  (** largest serviceable class, a power of two (default 4 MiB) *)
  chunk_bytes : int;  (** slab request granularity (default 4096) *)
}

val default_config : config

type t

val create : ?config:config -> Dmm_vmem.Address_space.t -> t
(** Raises [Invalid_argument] on non-power-of-two classes or non-positive
    sizes. The space's probe receives the accounting stream
    (alloc/free/fit-scan; this allocator never splits, coalesces or
    trims). The space must be this allocator's alone: its break is the
    footprint. *)

val alloc : t -> int -> int
(** Raises [Invalid_argument] if the request is non-positive or exceeds
    [max_class]. Returned addresses are [min_class]-aligned. *)

val free : t -> int -> unit
(** Raises {!Dmm_core.Allocator.Invalid_free} on wild or double frees
    (detected via the side class-byte table). *)

val current_footprint : t -> int
val max_footprint : t -> int
val metrics : t -> Dmm_core.Metrics.snapshot

val breakdown : t -> Dmm_core.Metrics.breakdown
(** Decompose the current footprint (Section 4.1 factors). *)

val allocator : t -> Dmm_core.Allocator.t
