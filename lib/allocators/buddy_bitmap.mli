(** MintOS-style binary buddy allocator over per-level occupancy bitmaps.

    The heap is a single power-of-two arena based at address 0. Each level
    [l] covers blocks of [min_block * 2^l] bytes and owns one bitmap in
    which a set bit marks a free block; a side byte table keyed by
    [addr / min_block] records the level of every allocated block (O(1)
    size recovery and wild/double-free detection). Allocation takes the
    first set bit at the request's level — scanning upward and splitting
    down, re-flagging the upper halves — and freeing greedily merges with
    the buddy ([addr XOR size]) while it is free. Capacity grows by
    doubling; each doubling appends one free block of the old capacity, and
    the zero base keeps all existing bit positions valid. Addresses are
    naturally size-aligned: [addr mod gross = 0].

    The search costs O(levels) plus the zero 64-bit words it skips. Each
    level keeps the exact count of its set bits, so an empty level is
    passed without reading its bitmap, and a hint that never exceeds its
    first set bit: setting a bit lowers the hint to it, and a search
    starts at the hint and leaves it at the bit found. The block chosen
    is always the lowest-indexed free one at the lowest non-empty level
    at or above the request's, and a search charges one step per level
    probed (plus one when every level is empty), whether or not the
    level's bitmap was read. *)

type config = {
  min_block : int;  (** smallest block size, a power of two (default 32) *)
}

val default_config : config

type t

val create : ?config:config -> Dmm_vmem.Address_space.t -> t
(** Raises [Invalid_argument] on a non-power-of-two or too-small
    [min_block]. The space's probe receives the full accounting stream,
    including the Split events of the split-down path and the Coalesce
    events of buddy merging. The space must be this allocator's alone:
    the arena is based at address 0 and its break is the footprint. *)

val alloc : t -> int -> int
(** Raises [Invalid_argument] on a non-positive request and on one of
    2 GiB or more: the payload is kept in a signed 32-bit in-band word. *)

val free : t -> int -> unit
(** Raises {!Dmm_core.Allocator.Invalid_free} on wild or double frees. *)

val words_read : t -> int
(** The 64-bit bitmap words the free-block searches have read so far,
    counting each search's words from its start word to the word of the
    bit found. This is the search's real cost beyond its step charge; it
    is not charged to [ops], so footprints and [ops] are unaffected. *)

val current_footprint : t -> int

val max_footprint : t -> int
(** Equal to {!current_footprint}: the arena never shrinks. *)

val metrics : t -> Dmm_core.Metrics.snapshot

val breakdown : t -> Dmm_core.Metrics.breakdown
(** Decompose the current footprint (Section 4.1 factors). *)

val allocator : t -> Dmm_core.Allocator.t
