(** Online per-stream analysis pipeline: the engine behind [dmm serve].

    One {!t} is the shared ingest context — a {!Dmm_obs.Registry} plus
    the daemon's own metrics ([dmm_ingest_streams_total],
    [dmm_ingest_errors_total], [dmm_ingest_active_streams], the
    per-shard [dmm_ingest_queue_depth] gauges, queue-wait and per-stage
    latency histograms, and the aggregated size/lifetime
    distributions). From it, {!stream} opens a per-stream {!pipeline}
    that runs the incremental sanitizer, a {!Dmm_obs.Registry_sink}, a
    {!Dmm_obs.Hist_sink} and a {!Dmm_obs.Lifetime_sink} over events fed
    one at a time — memory per stream is bounded by the sanitizer's
    live maps, never by stream length.

    The registry is domain-safe, so pipelines may run on different
    {!Pool} domains against one shared context; each pipeline itself is
    single-domain (its sinks buffer locally and publish on
    {!finish}/{!fail}).

    The context also carries the daemon's service-level state: an SLO
    gate ({!set_slo}/{!health}) over the error rate and the end-to-end
    ingest p99, and a [/statusz] snapshot ({!status_json}). *)

type t

val create : Dmm_obs.Registry.t -> t
(** Register the ingest metrics in [registry]. Every stream is checked
    for the heap invariants ({!Dmm_check.Sanitizer}'s first pass). *)

val registry : t -> Dmm_obs.Registry.t

val add_bytes : t -> int -> unit
(** Account raw wire bytes received ([dmm_ingest_bytes_total]);
    non-positive values are ignored. *)

(** {1 Shard telemetry}

    The daemon assigns each accepted connection to a worker shard;
    these hooks keep one labelled depth gauge per shard
    ([dmm_ingest_queue_depth{shard="i"}]) and the queue-wait histogram
    current, so scrapes show where backpressure sits. *)

val set_shards : t -> int -> unit
(** Register [n] per-shard depth gauges (idempotent per size; call once
    at daemon startup before connections arrive). *)

val shard_count : t -> int

val shard_enqueue : t -> int -> unit
(** A connection was queued on shard [i]: depth gauge +1. *)

val shard_dequeue : t -> int -> wait_us:int -> unit
(** A worker popped a connection from shard [i]: depth gauge -1, and
    the measured enqueue-to-dequeue wait lands in
    [dmm_ingest_queue_wait_us]. *)

val shard_depth : t -> int -> int
(** Current queued-connection count of shard [i] — the watchdog's
    probe. *)

val note_stall : t -> unit
(** The watchdog judged a shard stalled: bump
    [dmm_ingest_stalls_total]. Logging the warning is the caller's
    business (the library stays quiet). *)

(** {1 Health and SLO} *)

val set_slo : t -> ?max_error_rate:float -> ?max_p99_us:int -> unit -> unit
(** Tighten (or loosen) the gate: [max_error_rate] in [0,1] (default
    0.05), [max_p99_us] a bound on the end-to-end ingest p99 in
    microseconds (default 0 = unchecked). Raises [Invalid_argument] on
    out-of-range values. *)

type health = Healthy | Degraded of string

val health : t -> health
(** Recomputed from live counters on every probe — a daemon that
    recovers reads healthy again. The error-rate breach is reported in
    preference to the p99 breach: the rate is exact counter arithmetic,
    so deterministic workloads get a deterministic message. *)

val error_rate : t -> float
(** Errored streams over total streams; 0 before the first stream. *)

val uptime_s : t -> float

val status_json : t -> string
(** The [/statusz] body: one flat JSON object (plus a [queue_depths]
    array) with status/reason, uptime, stream and error counters, byte
    and event totals, per-shard queue depths, queue-wait p99 and ingest
    latency p50/p99/p999. *)

type pipeline

type summary = {
  report : Dmm_check.Sanitizer.report;
  spans : int;  (** completed allocation spans *)
  live_spans : int;  (** allocations never freed by end of stream *)
  leaked_bytes : int;  (** gross bytes held by those live spans *)
}

val stream : t -> pipeline
(** Open a pipeline for one incoming stream: bumps
    [dmm_ingest_streams_total] and [dmm_ingest_active_streams]. *)

val feed : pipeline -> Dmm_check.Stream.entry -> unit

val finish : pipeline -> summary
(** Close the stream cleanly: flush the registry sink, merge the
    distributions into the shared registry, drop the active gauge, and
    return the sanitizer verdict. The pipeline must not be fed again. *)

val fail : pipeline -> unit
(** Close a stream that died mid-decode: publish what was seen, drop
    the active gauge and bump [dmm_ingest_errors_total]. *)

val run_source : t -> Dmm_check.Stream.source -> (summary, string) result
(** Drive a whole {!Dmm_check.Stream.source} through one pipeline.
    [Error] (a decode failure) has already been accounted via {!fail}. *)

type stage_stats = {
  st_events : int;
  st_decode_us : int;  (** summed wall time spent decoding *)
  st_feed_us : int;  (** summed wall time in sanitizer and sinks *)
  st_total_us : int;  (** end-to-end, including finalize *)
}

val run_source_observed :
  ?sample:int ->
  t ->
  Dmm_check.Stream.source ->
  (summary, string) result * stage_stats
(** {!run_source} with stage observability. The hot loop is identical
    to the plain driver's; every [sample]-th entry (default 512) is
    additionally wall-clocked through its decode and feed halves, and
    the sampled averages scale up to the whole stream — so
    [st_decode_us] and [st_feed_us] are unbiased estimates (clamped to
    never exceed the exactly-measured [st_total_us]) while
    [st_events]/[st_total_us] stay exact.
    Each call lands one observation in the [dmm_ingest_decode_us] /
    [dmm_ingest_feed_us] / [dmm_ingest_stream_us] histograms, and —
    when a {!Dmm_obs.Span} tracer is ambient — records [decode], [feed]
    and [finalize] child spans under the caller's open connection span
    (aggregate times laid end to end, not per-batch span spam). The
    source is always closed; a decode failure has already been
    accounted via {!fail}. *)
