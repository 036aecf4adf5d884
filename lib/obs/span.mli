(** Wall-clock span tracer for the toolchain's own machinery.

    Where {!Probe} observes the *simulated* allocator (logical clocks, one
    event per heap operation), [Span] observes the *simulator*: how long
    the explorer, the work-stealing pool and each replay actually took on
    the host. Spans are hierarchical — [with_span] brackets a computation,
    and spans opened inside it (on the same domain) become its children —
    and are buffered per domain with no locking on the hot path, so worker
    domains spawned by [Dmm_engine.Pool.map] trace at full speed. The
    per-domain buffers are merged when the tracer is read
    ({!spans}/{!to_chrome}).

    Tracing is ambient and off by default: {!with_span} costs one atomic
    read and a branch until {!set_ambient} installs a tracer, so
    instrumentation can stay in release hot paths. Timestamps come from
    {!Clock} relative to the tracer's creation, in microseconds;
    {!to_chrome} clamps a {!record}ed span that starts before its parent,
    so exported B/E pairs always nest. *)

type span = {
  sp_name : string;
  sp_tid : int;  (** domain id the span ran on *)
  sp_seq : int;  (** per-domain start order *)
  sp_parent : int;  (** [sp_seq] of the enclosing span on the same domain, or -1 *)
  sp_depth : int;  (** nesting depth on its domain; 0 = root *)
  sp_start_us : int;
  sp_end_us : int;
  sp_args : (string * int) list;
  sp_sargs : (string * string) list;
      (** string-valued args — trace context, peer addresses *)
}

type t

val create : unit -> t
(** A fresh tracer; its epoch (timestamp zero) is the moment of creation. *)

val set_ambient : t option -> unit
(** Install (or with [None] remove) the process-wide ambient tracer that
    {!with_span} records into. Call from the orchestrating domain before
    spawning workers. *)

val ambient : unit -> t option

val enabled : unit -> bool
(** [true] iff an ambient tracer is installed. *)

val with_span :
  ?args:(string * int) list -> ?sargs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; if an ambient tracer is installed the
    call is recorded as a span (child of the innermost open span on this
    domain). The span is recorded even when [f] raises; the exception is
    re-raised with its backtrace. With no tracer installed this is just
    [f ()]. *)

val record :
  ?args:(string * int) list ->
  ?sargs:(string * string) list ->
  string ->
  start_us:int ->
  end_us:int ->
  unit
(** Record an already-finished span with externally-observed timestamps
    (tracer microseconds, see {!ambient_now_us}) — e.g. a connection's
    time on the accept queue, measured between a push on one domain and
    the pop on another. The span becomes a child of the innermost open
    span on the calling domain (or a root). No-op without an ambient
    tracer; [end_us] is clamped to [start_us] if it precedes it. *)

val now_us : t -> int
(** Microseconds since the tracer's epoch. *)

val ambient_now_us : unit -> int
(** {!now_us} of the ambient tracer, or 0 when tracing is off — the
    clock to stamp {!record} spans with. *)

val spans : t -> span list
(** All completed spans, merged across domains, sorted by (domain, start
    order). Call after worker domains have been joined. *)

val span_count : t -> int

val root_us : t -> int
(** Total duration of depth-0 spans recorded on the domain that created
    the tracer — the numerator of the "span tree covers N% of wall time"
    coverage figure. Worker-domain roots are deliberately excluded: their
    time is already inside an orchestrating span on the home domain, and
    counting it would push coverage past 100%. *)

val to_chrome : t -> Chrome_sink.t -> unit
(** Emit every span as Trace Event duration events ([ph:"B"]/[ph:"E"])
    onto the sink, one track ([tid]) per domain, parenting by recorded
    nesting so the pairs are balanced by construction. *)
