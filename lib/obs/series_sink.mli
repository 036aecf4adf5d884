(** Exact footprint sink.

    Where the polling approach ({!Dmm_trace.Footprint_series}) samples the
    footprint every N replay events and can miss a short-lived spike
    between samples, this sink sees {e every} break movement
    ({!Event.Sbrk} / {!Event.Trim}), so [peak] is exactly the high-water
    mark the manager reports. Footprint is accumulated from the event
    deltas, so a probe threaded through several address spaces yields
    their combined footprint. *)

type t

val create : unit -> t
val attach : Probe.t -> t -> unit
val on_event : t -> int -> Event.t -> unit

val current : t -> int
(** Footprint right now (sum of sbrk bytes minus trim bytes so far). *)

val peak : t -> int
(** Exact maximum footprint over the whole stream. *)
