(** Process-wide metrics registry.

    Named counters, gauges and log-bucketed histograms with Domain-safe
    increments: every hot-path operation is a single [Atomic] op on a
    pre-registered handle, so worker domains in the engine pool can all
    record into the same cells without locks. Registration (get-or-create
    by name) takes a mutex and is expected once per metric at module or
    run setup, never per event.

    Histograms share {!Log_hist}'s bucket geometry, so their percentile
    error bound is the same [Log_hist.relative_error ~sub_bits]. They are
    exposed to Prometheus as summaries with precomputed quantiles. *)

type counter
type gauge
type histogram

type t

val create : unit -> t

val global : t
(** The process-wide registry used by [Dmm_engine] and the explorer. *)

(** {1 Registration}

    Get-or-create by name. Re-registering an existing name with the same
    kind returns the existing handle ([help] of the first registration
    wins); with a different kind it raises [Invalid_argument]. *)

val counter : ?help:string -> t -> string -> counter
val gauge : ?help:string -> t -> string -> gauge
val histogram : ?help:string -> ?sub_bits:int -> t -> string -> histogram

(** {1 Recording} — wait-free, safe from any domain. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment. *)

val set : gauge -> int -> unit

val gauge_add : gauge -> int -> unit
(** Move the gauge by a (possibly negative) delta — one atomic add, so
    concurrent movers from several domains never lose updates the way
    read-modify-{!set} would. *)

val gauge_max : gauge -> int -> unit
(** Raise the gauge to [v] if it is currently lower (CAS loop). *)

val observe : histogram -> int -> unit
(** Record one value; negatives clamp to 0. *)

val merge_log_hist : histogram -> Log_hist.t -> unit
(** Add every sample of an aggregated single-domain {!Log_hist} into the
    shared histogram in one pass (an atomic add per non-empty bucket) —
    how hot-path sinks publish distributions without paying per-event
    atomics. Raises [Invalid_argument] when the bucket geometries
    ([sub_bits]) differ. *)

(** {1 Reading} *)

val value : counter -> int
val gauge_value : gauge -> int
val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_max : histogram -> int

val hist_percentile : histogram -> float -> int
(** Same rank convention as {!Log_hist.percentile}. Under concurrent
    writers the result is a consistent-enough snapshot for reporting. *)

val reset : t -> unit
(** Zero every metric (handles stay valid). Used between benchmark
    sections and before each [dmm explore --telemetry] run. *)

val is_empty : t -> bool

type view =
  | Counter_view of string * int
  | Gauge_view of string * int
  | Histogram_view of string * histogram
      (** Live handle — read it with {!hist_count} / {!hist_percentile}. *)

val view : t -> view list
(** Typed snapshot of every metric, sorted by name — for reporting layers
    that render kinds differently (e.g. wall-clock histograms behind a
    "[time]" prefix so deterministic output stays diffable). *)

val to_prometheus : ?prefix:string -> t -> string
(** Prometheus text exposition: counters and gauges verbatim, histograms
    as summaries with quantiles 0.5/0.9/0.99/0.999 plus [_sum] and
    [_count]. A registered name may carry a Prometheus label set —
    ["dmm_ingest_queue_depth{shard=\"3\"}"] — whose series then share one
    [# HELP]/[# TYPE] header under the base name, with histogram
    [quantile] labels spliced into the brace set. [prefix] restricts the
    output to metrics whose name starts with it (e.g. ["dmm_search_"] to
    merge the search engine's self-metrics into another registry's
    scrape). *)
