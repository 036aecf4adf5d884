(** Operation and occupancy counters shared by all managers.

    [ops] is the platform-independent cost measure used by the performance
    experiment (EXP-PERF): every free-structure step, table lookup, split,
    merge and system call bumps it. *)

type t

(** Where the held bytes go — the paper's Section 4.1 factors: organization
    overhead (tags), internal fragmentation (padding), and memory kept free
    inside the manager. Invariant: [total_held = live_payload + tag_overhead
    + internal_padding + free_bytes + slack] where slack is carving residue
    not yet in any free structure (0 for most managers). *)
type breakdown = {
  live_payload : int;  (** bytes the application asked for and still holds *)
  tag_overhead : int;  (** header/footer bytes on live blocks (category A) *)
  internal_padding : int;
      (** live gross minus tags minus payload: alignment and size-class
          rounding waste *)
  free_bytes : int;  (** held from the system but currently free *)
  total_held : int;  (** current footprint *)
}

val pp_breakdown : Format.formatter -> breakdown -> unit

type snapshot = {
  allocs : int;
  frees : int;
  splits : int;
  coalesces : int;
  ops : int;
  live_payload : int;  (** bytes currently allocated, as requested by the app *)
  live_blocks : int;
  peak_live_payload : int;
}

val create : ?probe:Dmm_obs.Probe.t -> unit -> t
(** [probe] (default {!Dmm_obs.Probe.null}) receives one event per
    counted step; a manager passes its address space's
    ({!Dmm_vmem.Address_space.probe}), so heap and manager events share
    one logical clock. Each updater below bumps its counter and, only
    when a sink is attached, builds and emits the matching
    {!Dmm_obs.Event.t}: one call per step, no allocation with the probe
    off. *)

val on_alloc : t -> payload:int -> gross:int -> tag:int -> addr:int -> unit
val on_free : t -> payload:int -> addr:int -> unit
val on_split : t -> addr:int -> parent:int -> taken:int -> remainder:int -> unit
val on_coalesce : t -> addr:int -> merged:int -> absorbed:int -> unit

val add_ops : t -> int -> unit
(** Emits a [Fit_scan] only when the count is non-zero. *)

val probing : t -> bool
(** True when the probe has a sink, so a manager must walk step by step
    what it could otherwise charge at once. *)

val on_event : t -> int -> Dmm_obs.Event.t -> unit
(** A probe sink ([Probe.attach probe (on_event t)]) that rebuilds these
    counters from the event stream alone: [Alloc], [Free], [Split] and
    [Coalesce] count as the matching [on_*] does, and [Fit_scan] adds its
    steps to [ops]. It only counts; it never emits. Attached to a
    replay's probe, its snapshot equals the manager's own inline one
    field for field, for a per-phase global manager too. *)

val snapshot : t -> snapshot
val live_payload : t -> int
val ops : t -> int

val pp_snapshot : Format.formatter -> snapshot -> unit
