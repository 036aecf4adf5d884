(** Obstack allocator: chunked stack allocation (GNU obstacks), the custom
    manager the paper compares against on the 3D rendering case study.

    Objects are bump-allocated in chunks and reclaimed in LIFO order.
    Freeing the most recent live object pops the stack (and any dead run
    below it, releasing emptied chunks); freeing any other object only
    marks it dead — the memory stays until everything above it is freed.
    That is obstack's published weakness on the non-stack-like final phases
    the paper exploits (Section 5). Chunks at the top of the heap are
    returned to the system; others go to a chunk cache for reuse. *)

type config = {
  chunk_bytes : int;  (** default chunk size (default 4096) *)
  alignment : int;  (** object alignment (default 8) *)
}

val default_config : config

type t

val create : ?config:config -> Dmm_vmem.Address_space.t -> t
(** The space's probe receives the accounting stream. The space may be
    shared (the chunk cache exists for chunks trapped below another
    allocator's growth), so the obstack counts the chunks it holds itself
    and its footprint is its own, not the space's break. *)

val alloc : t -> int -> int
val free : t -> int -> unit
val current_footprint : t -> int
val max_footprint : t -> int
val metrics : t -> Dmm_core.Metrics.snapshot

val breakdown : t -> Dmm_core.Metrics.breakdown
(** Decompose the current footprint (Section 4.1 factors). *)

val live_objects : t -> int
val dead_objects : t -> int
(** Dead-but-unreclaimed objects (exposed for tests). *)

val allocator : t -> Dmm_core.Allocator.t
