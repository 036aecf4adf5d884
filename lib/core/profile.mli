(** DM behaviour profiling (step 1 of the methodology).

    The paper first profiles the application's DM behaviour — request-size
    distribution, lifetimes, logical phases — and derives the custom manager
    from the profile. Feed events through {!observe_alloc} /
    {!observe_free} / {!observe_phase} (the trace recorder does this), then
    query the summaries. Block ids are caller-chosen non-negative ints,
    unique among the live blocks: the live set is an array indexed by id,
    so it takes memory in proportion to the largest id seen (generated
    and [Trace.validate]d traces number their blocks densely from 0).
    Once the arrays have grown, an observation allocates nothing. *)

type t

type phase_summary = {
  phase : int;
  allocs : int;
  frees : int;
  size_hist : Dmm_util.Histogram.t;
  size_stats : Dmm_util.Stats.t;
  lifetime_stats : Dmm_util.Stats.t;  (** events between alloc and free *)
  peak_live_bytes : int;
  peak_live_blocks : int;
  lifo_frees : int;
      (** frees that released the most recently allocated live block *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the live set for ids below it (default 16); an
    id past it grows the arrays. A caller that knows its largest id, as
    [Profile_builder.of_trace] does from the trace, passes one more than
    it, and no observation grows them. *)

val observe_phase : t -> int -> unit
val observe_alloc : t -> id:int -> size:int -> unit
(** Raises [Invalid_argument] if [size <= 0], [id < 0] or [id] is
    already live. *)

val observe_free : t -> id:int -> unit
(** Raises [Invalid_argument] if [id] is not live. *)

val total : t -> phase_summary
(** Whole-run summary (phase field is [-1]). *)

val phases : t -> phase_summary list
(** Per-phase summaries in increasing phase order. A summary is a
    snapshot: later observations do not change it. *)

val phase_ids : t -> int list

val leaked : t -> int
(** Blocks still live at the end of the observation. *)

(** {1 Derived indicators used by the explorer's heuristics} *)

val size_variability : phase_summary -> float
(** Coefficient of variation of request sizes. *)

val distinct_sizes : phase_summary -> int

val dominant_sizes : phase_summary -> int -> (int * int) list
(** Top-k request sizes by frequency. *)

val stack_likeness : phase_summary -> float
(** Fraction of frees in LIFO order; 1.0 = pure stack behaviour. *)

val pp_summary : Format.formatter -> phase_summary -> unit
