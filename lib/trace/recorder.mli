(** Trace capture: a recorder that stands in for a manager during the
    profiling run (fresh sequential ids as addresses, no memory model). *)

val recording_allocator : unit -> Dmm_core.Allocator.t * (unit -> Trace.t)
(** [recording_allocator ()] returns an allocator whose addresses are fresh
    ids and a function extracting the trace recorded so far. Footprint
    queries report the live payload (no manager is behind it). *)
