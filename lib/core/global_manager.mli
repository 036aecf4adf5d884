(** Global DM manager: composition of atomic managers, one per logical
    phase of the application (Section 3.3).

    The application announces phase changes through the {!Allocator.t}
    [phase] hook; allocations are served by the atomic manager of the
    current phase, frees are dispatched to whichever manager owns the
    address (objects may outlive their phase). All atomic managers share
    one address space, which must be exclusive to this global manager so
    that its break/high-water is the composition's footprint. *)

type design = Explorer.design = { vector : Decision_vector.t; params : Manager.params }

type t

val create :
  Dmm_vmem.Address_space.t ->
  default:design ->
  ?overrides:(int * design) list ->
  unit ->
  t
(** [create space ~default ~overrides ()] builds a global manager whose
    atomic manager for phase [p] follows the design in [overrides] when
    present and [default] otherwise. Atomic managers are instantiated
    lazily at the first allocation of their phase. Phase 0 is current
    initially. Every atomic manager emits to the space's probe, the same
    stream as the space's break events; phase-change events are emitted
    by [Dmm_trace.Replay.run], not here, so a trace replayed against a
    composition produces each [Phase] marker exactly once. Raises
    [Invalid_argument] if any design is invalid. *)

val set_phase : t -> int -> unit
val current_phase : t -> int

val alloc : t -> int -> int
val free : t -> int -> unit

val managers : t -> (int * Manager.t) list
(** Instantiated atomic managers, by phase. *)

val allocator : t -> Allocator.t
