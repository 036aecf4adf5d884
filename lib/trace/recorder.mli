(** Trace capture: a recorder that stands in for a manager during the
    profiling run (fresh sequential ids as addresses, no memory model). *)

val recording_allocator : unit -> Dmm_core.Allocator.t * (unit -> Trace.t)
(** [recording_allocator ()] returns an allocator whose addresses are fresh
    ids and a function extracting the trace recorded so far. Footprint
    queries report the live payload (no manager is behind it).

    Ids are dense from 1, so the recorder keeps each live id's size in an
    array indexed by id, doubled as the ids reach its end, and writes
    each event straight into the trace's flat arrays: it allocates
    nothing per event beyond their doubling. Freeing an id that is not live raises
    {!Dmm_core.Allocator.Invalid_free}. The extracting function trims the
    trace to its length ({!Trace.trim}) before handing it over; the trace
    is the recorder's own, not a copy. *)
