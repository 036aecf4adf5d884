(** Event sink that publishes the allocation stream as {!Registry}
    metrics ([dmm_events_total], [dmm_allocs_total], [dmm_footprint_bytes],
    …) — the bridge between a probe and the Prometheus exposition.

    The hot path touches only plain local fields; accumulated deltas are
    published to the registry with atomic adds every [flush_every] events
    (default 1024) and on {!flush}. Call {!flush} before reading or
    exporting the registry, or the tail of the stream (at most
    [flush_every] events) is still in the local buffer. Distributions are
    not recorded here — aggregate them in a {!Hist_sink} and publish once
    via {!Registry.merge_log_hist}. *)

type t

val create : ?flush_every:int -> Registry.t -> t
(** Registers the metric names in [registry] (get-or-create, so several
    sinks may share one registry). [flush_every] must be positive. *)

val attach : Probe.t -> t -> unit
val on_event : t -> int -> Event.t -> unit

val flush : t -> unit
(** Publish all buffered deltas now. Idempotent between events. *)
