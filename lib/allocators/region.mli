(** Fixed-block region manager, as found in embedded real-time OSs (the
    paper's second-case-study baseline, after Gay & Aiken-style regions).

    Each region serves exactly one (power-of-two rounded) block size from
    page-granular chunks carved into fixed slots; freed slots return to
    their region's slot list. Blocks carry no header — the region is found
    from the address — which is the manager's footprint advantage over
    Kingsley; the fixed slot size is its internal-fragmentation cost.
    Memory is never returned to the system.

    Besides the size-class behaviour behind {!allocator}, an explicit
    region API ({!make_region}/{!destroy_region}) is provided for
    applications with true per-region lifetimes; destroyed regions donate
    their chunks to a shared cache for reuse.

    The manager keeps every region it makes, explicit or size-class, in
    an array indexed by a region id, and maps each live slot to its
    region's id, so a region record lives as long as its manager, even
    after {!destroy_region}. *)

type config = {
  min_slot : int;  (** smallest slot size, power of two (default 16) *)
  chunk_bytes : int;  (** chunk request granularity (default 4096) *)
}

val default_config : config

type t
type region

val create : ?config:config -> Dmm_vmem.Address_space.t -> t
(** The space's probe receives the accounting stream. The space must be
    this manager's alone: its break is the footprint. *)

val make_region : t -> slot_size:int -> region
(** Explicit region with the given (rounded-up) slot size. *)

val region_alloc : t -> region -> int
(** One slot from the region. *)

val region_free : t -> region -> int -> unit
(** Return a slot to its region. Raises [Invalid_free] on foreign
    addresses. *)

val destroy_region : t -> region -> unit
(** Release all chunks of the region into the shared chunk cache. Any
    outstanding slots become invalid: each is freed, one [Free] event per
    slot in increasing address order. The chunks are cached so that the
    region's oldest is reused first. The emptied region stays usable:
    {!region_alloc} gives it a chunk again, from the cache first. *)

val alloc : t -> int -> int
val free : t -> int -> unit
val current_footprint : t -> int
val max_footprint : t -> int
val metrics : t -> Dmm_core.Metrics.snapshot

val breakdown : t -> Dmm_core.Metrics.breakdown
(** Decompose the current footprint (Section 4.1 factors). *)

val slot_of_request : t -> int -> int
(** Slot size class serving a request (exposed for tests). *)

val allocator : t -> Dmm_core.Allocator.t
