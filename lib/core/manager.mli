(** Atomic custom DM manager: an interpreter for one decision vector.

    Given a valid complete assignment of the search space (one leaf per
    tree) plus run-time parameters, this module instantiates a working
    allocator over a simulated address space. Every mechanism of the paper's
    categories is executed literally:

    - A1 picks the free-structure DDT; A2 the block-size regime; A3/A4 set
      the per-block tag overhead in bytes; A5 arms splitting/coalescing.
    - B1/B2/B4 shape the pool set; B3 is interpreted by {!Global_manager}.
    - C1 selects the fit algorithm.
    - D1/D2 bound and schedule coalescing; E1/E2 splitting.

    The run-time parameters are the quantities the paper settles "via
    simulation" (Section 5): size classes, chunk granularity, trim policy,
    deferral interval. *)

type params = {
  word_size : int;  (** bytes per tag word (default 4, a 32-bit target) *)
  alignment : int;  (** payload alignment (default 8) *)
  fixed_block_size : int;
      (** gross block size when A2 = [One_fixed_size] (default 64) *)
  size_classes : int list;
      (** ascending gross size-class ceilings for [Many_fixed_sizes] and/or
          [Pool_per_size_range]; requests above the last ceiling get
          dedicated blocks *)
  max_coalesced_size : int option;
      (** D1 bound: [None] when D1 = [Not_fixed] *)
  min_split_remainder : int;
      (** never create a remainder smaller than this (default 0: the
          manager's minimum block size applies anyway) *)
  chunk_request : int;
      (** granularity of system requests when splitting can recover the
          slack (default 4096) *)
  return_to_system : bool;
      (** trim the heap break when the topmost block becomes free *)
  trim_threshold : int;
      (** only trim when the trailing free block is at least this large *)
  deferred_interval : int;
      (** frees between coalescing sweeps when D2 = [Deferred] *)
}

val default_params : params

val pow2_classes : min:int -> max:int -> int list
(** Power-of-two ceilings [min; 2*min; ...; max], for Kingsley-style
    configurations. *)

type t

val create :
  ?expected_live:int ->
  ?params:params ->
  Decision_vector.t ->
  Dmm_vmem.Address_space.t ->
  t
(** The space's probe receives one event per accounting step:
    [Alloc]/[Free] at the service boundary, [Split] and [Coalesce] as the
    mechanisms fire, and [Fit_scan] for every bookkeeping-cost increment,
    so {!Metrics.on_event} rebuilds exactly the snapshot returned by
    {!metrics}.

    Raises [Invalid_argument] with the violated rules if the vector fails
    {!Constraints.check}, or if the parameters are inconsistent (e.g. empty
    [size_classes] under a fixed-size regime). [expected_live] pre-sizes
    the block registry (base address to block) for replays whose peak
    live-block count is known (default 256). *)

val vector : t -> Decision_vector.t
val params : t -> params

type layout = {
  l_header_bytes : int;  (** payload address = block base + this *)
  l_footer_bytes : int;
  l_tag_bytes : int;  (** header + footer *)
  l_min_block : int;  (** smallest gross block the manager will create *)
}

val layout : params -> Decision_vector.t -> layout
(** The block geometry implied by a (params, vector) pair — exactly what
    {!create} uses internally. Exposed so offline analyses (the
    [Dmm_check] sanitizer) can map payload addresses back to block bases
    without instantiating a manager. *)

val alloc : t -> int -> int
val free : t -> int -> unit
(** See {!Allocator} for the contract. *)

val owns : t -> int -> bool
(** [owns t addr] is true when [addr] is the payload address of a block
    currently allocated by [t] (used by {!Global_manager} dispatch). *)

val current_footprint : t -> int
(** Bytes this manager currently holds from the system (its own blocks,
    not the whole address space — several managers may share one space). *)

val live_payload : t -> int
(** Payload bytes of the blocks this manager has handed out and not yet
    had back. *)

val metrics : t -> Metrics.snapshot

val breakdown : t -> Metrics.breakdown
(** Decompose the current footprint into the Section 4.1 factors. *)

val free_bytes : t -> int
(** Bytes sitting in this manager's free structures. *)

val free_blocks : t -> (int * int) list
(** (address, size) of every free block, in address order (diagnostics:
    lets tests observe splitting/coalescing results directly). *)

val check_invariants : t -> (unit, string) result
(** Structural self-check used by the test suite: no overlapping blocks,
    the physical chain in address order with its head and tail in sync,
    free structures in sync with block status, held bytes equal to the
    sum of block sizes. *)

(** {2 Shape introspection}

    The free-structure linter ([Dmm_check.Shape]) walks every pool of a
    live manager; these views expose the pools together with the size
    constraint each one is supposed to enforce. *)

type size_expectation =
  | Any_size
  | Exactly of int  (** per-size pool: every block has this gross size *)
  | Within of { above : int; up_to : int option }
      (** range-pool slot: sizes in [(above, up_to]]; [None] = unbounded *)

type pool_view = {
  pool_label : string;
  expect : size_expectation;
  fs : Free_structure.t;
}

val pool_views : t -> pool_view list
(** One view per pool, in a deterministic order (per-size pools sorted by
    size, range slots by index). *)

val allocator : t -> Allocator.t
(** Package as the uniform interface (phase markers are ignored). *)
