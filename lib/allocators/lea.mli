(** Simplified Lea allocator (dlmalloc), the Linux-side baseline of the
    paper's comparison.

    Boundary-tagged chunks (4-byte header; free chunks self-describe for
    backward merging), binned free lists — exact-spacing small bins below
    512 bytes, logarithmic best-fit large bins above — immediate coalescing
    on free, a wilderness ("top") chunk grown from the system in
    [granularity] units and trimmed back when it exceeds [trim_threshold].
    This reproduces dlmalloc's footprint behaviour: good reuse and
    coalescing, but system memory held in coarse granules.

    The allocator assumes exclusive use of its address space (the benches
    give every manager its own): the space's break is its footprint. Its heap stays below 1 GiB, the range of
    the 32-bit boundary tag: {!alloc} raises [Invalid_argument] rather
    than grow the heap to 2^30 bytes. *)

type config = {
  granularity : int;  (** system request unit, default 64 KiB *)
  trim_threshold : int;  (** trim the top chunk beyond this, default 128 KiB *)
  header_bytes : int;  (** default 4 *)
  alignment : int;  (** default 8 *)
  small_bin_max : int;  (** exact bins below this gross size, default 512 *)
}

val default_config : config

type t

val create : ?config:config -> Dmm_vmem.Address_space.t -> t
(** The space's probe receives the accounting stream. *)

val alloc : t -> int -> int
val free : t -> int -> unit
val current_footprint : t -> int
val max_footprint : t -> int
val metrics : t -> Dmm_core.Metrics.snapshot

val breakdown : t -> Dmm_core.Metrics.breakdown
(** Decompose the current footprint (Section 4.1 factors). *)

val top_size : t -> int
(** Current wilderness-chunk size (exposed for tests). *)

val binned_bytes : t -> int
(** Bytes currently held in the bins (exposed for tests). *)

val allocator : t -> Dmm_core.Allocator.t
