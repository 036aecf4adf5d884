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

val create : unit -> t

val on_alloc : t -> payload:int -> unit
val on_free : t -> payload:int -> unit
val on_split : t -> unit
val on_coalesce : t -> unit
val add_ops : t -> int -> unit

val on_event : t -> int -> Dmm_obs.Event.t -> unit
(** A probe sink ([Probe.attach probe (on_event t)]) that rebuilds these
    counters from the event stream alone: [Alloc], [Free], [Split] and
    [Coalesce] call the matching [on_*], and [Fit_scan] adds its steps to
    [ops]. Attached to a replay's probe, its snapshot equals the
    manager's own inline one field for field. For a per-phase global
    manager it is stronger: it sees the composition's true live payload
    over time, so its [peak_live_payload] is the real global peak, while
    the inline combined snapshot sums each atomic manager's private
    peak. *)

val snapshot : t -> snapshot
val live_payload : t -> int
val ops : t -> int

val pp_snapshot : Format.formatter -> snapshot -> unit
