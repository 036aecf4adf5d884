(** Simulated byte-addressable heap.

    The paper measures memory footprint as the maximum extent of the heap a
    DM manager requests from the system. This module models that system
    interface: a linear address space grown with {!sbrk} and shrunk from the
    top with {!trim}, with high-water-mark accounting. Allocators built on
    top manage integer addresses; payload bytes are never stored. *)

type t

val create : ?probe:Dmm_obs.Probe.t -> ?page_size:int -> unit -> t
(** Fresh address space starting at break 0. [page_size] (default 4096) is
    advisory: {!sbrk} grows by exactly the amount requested; allocators that
    emulate page-granular OS requests use {!grow_pages}. [probe] (default
    {!Dmm_obs.Probe.null}) receives an {!Dmm_obs.Event.Sbrk} /
    {!Dmm_obs.Event.Trim} event for every break movement — the ground truth
    of footprint accounting — and, through {!probe}, every event of the
    managers built over the space. Raises [Invalid_argument] if
    [page_size <= 0]. *)

val page_size : t -> int

val probe : t -> Dmm_obs.Probe.t
(** The probe given to {!create}. A manager built over this space passes
    it to its [Metrics], so the space's break events and the manager's
    own share one stream and one logical clock. *)

val brk : t -> int
(** Current break: one past the highest mapped address. *)

val high_water : t -> int
(** Maximum value ever reached by {!brk} — the paper's "maximum memory
    footprint". *)

val sbrk : t -> int -> int
(** [sbrk t n] extends the space by [n] bytes and returns the base address
    of the new range (the previous break). Raises [Invalid_argument] if
    [n < 0]. *)

val grow_pages : t -> int -> int
(** [grow_pages t n] extends by [n] rounded up to a whole number of pages
    and returns the base address. Raises [Invalid_argument] if [n <= 0]. *)

val trim : t -> int -> unit
(** [trim t addr] releases everything from [addr] (inclusive) to the current
    break back to the system, lowering the break to [addr]. The high-water
    mark is unaffected. Raises [Invalid_argument] unless
    [0 <= addr <= brk t]. *)

val sbrk_calls : t -> int
(** Number of {!sbrk}/{!grow_pages} system requests so far. *)

val trim_calls : t -> int

val bytes_released : t -> int
(** Cumulative bytes returned via {!trim}. *)

(** {1 Flat arena view}

    A contiguous, zero-initialised, byte-addressable image of the space, so
    allocators can keep their bookkeeping in-band — boundary tags, in-band
    free-list links, occupancy bitmaps — in flat unboxed storage instead of
    heap-allocated records. Positions are heap addresses (the same integers
    {!sbrk} hands out). The backing buffer grows lazily by amortised
    doubling; reads beyond what was ever written return 0. Values are
    little-endian; 32-bit accessors sign-extend, so small negative sentinels
    (e.g. -1 list terminators) round-trip. *)

val arena_get32 : t -> int -> int
(** [arena_get32 t pos] reads the signed 32-bit word at byte [pos].
    Raises [Invalid_argument] if [pos < 0]. *)

val arena_set32 : t -> int -> int -> unit
(** [arena_set32 t pos v] writes [v]'s low 32 bits at byte [pos]. *)

val arena_get8 : t -> int -> int
(** [arena_get8 t pos] reads the unsigned byte at [pos] (0..255). *)

val arena_set8 : t -> int -> int -> unit
(** [arena_set8 t pos v] writes [v land 0xff] at byte [pos]. *)

val pp : Format.formatter -> t -> unit
