(** Trace capture: a recorder that stands in for a manager during the
    profiling run (fresh sequential ids as addresses, no memory model). *)

val recording_allocator : unit -> Dmm_core.Allocator.t * (unit -> Trace.t)
(** [recording_allocator ()] returns an allocator whose addresses are fresh
    ids and a function extracting the trace recorded so far. Footprint
    queries report the live payload (no manager is behind it).

    Ids are dense from 1, so the recorder keeps each live id's size in an
    array indexed by id, doubled as the ids reach its end, and appends
    each event to a {!Trace.Builder}: it allocates nothing per event
    beyond that array's doubling and the builder's chunks. Freeing an id
    that is not live raises {!Dmm_core.Allocator.Invalid_free}. The
    extracting function builds the trace recorded so far
    ({!Trace.Builder.build}): one copy of its events into arrays of
    exactly their number. *)
