(** Span-matching lifetime profiler.

    Pairs each [Alloc] with the [Free] at the same payload address into a
    {e span} and aggregates log-bucketed lifetime histograms ({!Log_hist},
    in clock ticks between birth and death) per power-of-two size class
    and per logical phase — the characterization behind the paper's pool
    division by lifetime (tree B3) and the profile-first step of the
    methodology.

    Defective streams never raise: a free without a live span at its
    address (including double-frees) and an alloc landing on a still-live
    address are counted in {!unmatched} and the affected span is
    abandoned, so a stream the sanitizer would flag still profiles — just
    with an honest defect count attached.

    Live spans sit in a flat table: an {!Dmm_util.Int_int_table} maps each
    payload address (any [int]) to a slot of four [int] arrays (payload,
    gross size, birth clock, birth phase), and freed slots are reused.
    Size classes are cells indexed by their log2 and the current phase's
    cell is cached, so once the table has grown to the live set an
    [Alloc] or [Free] allocates nothing. *)

type span = {
  addr : int;
  payload : int;
  gross : int;
  born_clock : int;
  born_phase : int;
  freed_clock : int;
  freed_phase : int;
}
(** A completed allocation span. [freed_clock - born_clock] is its
    lifetime in clock ticks. *)

type unmatched = {
  free_without_alloc : int;
      (** frees (and double-frees) whose address held no live span *)
  realloc_over_live : int;
      (** allocs landing on an address whose previous span never freed *)
}

type class_row = {
  size_class : int;  (** power-of-two ceiling of the gross block size *)
  spans : int;  (** spans born in this class (completed or still live) *)
  live : int;  (** spans never freed by the end of the stream *)
  leaked_bytes : int;  (** gross bytes held by those live spans *)
  lifetimes : Log_hist.t;  (** completed-span lifetimes *)
}

type phase_row = {
  phase : int;
  spans : int;  (** spans born in this phase (completed or still live) *)
  contained : int;  (** freed while this phase was still current *)
  escaped : int;  (** freed after a later phase marker *)
  leaked : int;  (** still live at the end of the stream *)
  lifetimes : Log_hist.t;  (** completed spans born in this phase *)
}

type phase_summary = {
  s_phase : int;
  s_spans : int;
  s_contained : int;
  s_escaped : int;
  s_leaked : int;
  s_p50_lifetime : int;
  s_p99_lifetime : int;
  s_max_lifetime : int;
}
(** Immutable per-phase digest of the spans born in one phase, as
    [dmm profile] prints it. *)

type t

val create : ?on_span:(span -> unit) -> unit -> t
(** [on_span] fires once per completed span, at its [Free] event (the
    Chrome async-span export hook). *)

val on_event : t -> int -> Event.t -> unit
val attach : Probe.t -> t -> unit

val spans : t -> int
(** Completed (matched) spans so far. *)

val live_spans : t -> int
(** Spans opened but not yet freed — leaks, once the stream has ended. *)

val leaked_bytes : t -> int
(** Gross bytes held by {!live_spans}. Like the per-class sums in
    {!class_rows}, it saturates at [max_int] on hostile sizes, and a
    negative gross size counts as 0. *)

val lifetimes : t -> Log_hist.t
(** All completed-span lifetimes, one histogram. *)

val unmatched : t -> unmatched

val class_rows : t -> class_row list
(** Per-size-class rows in increasing class order. *)

val phase_rows : t -> phase_row list
(** Per-phase rows in increasing phase order (phases that only leak still
    get a row). *)

val phase_summaries : t -> phase_summary list

val pp_phase_summary : Format.formatter -> phase_summary -> unit
