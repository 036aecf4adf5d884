(** Merlin-style lifetime oracle over recorded event streams.

    Explicit [Free] events say when the application {e returned} memory;
    the object-graph events ([Ptr_write], [Root_add]/[Root_remove]) say
    when it could last have {e used} it. Following Merlin lifetime
    analysis (the Elephant-Tracks lineage), the forward pass advances an
    object's {e last-reachable stamp} to the probe's logical clock every
    time it loses a reference — a pointer slot holding it is
    overwritten, the object holding that slot is freed, or one of its
    roots is dropped — and the backward pass then propagates death times
    through the retained pointer graph: an object's death is the latest
    death among the objects that could still reach it, clamped to its
    own horizon (its explicit free, or the end of the stream).

    Two products fall out:

    - {b drag} — [free clock - death clock] per explicitly freed object
      (≥ 0 by construction): heap bytes the design held live that the
      application could never have touched again, histogrammed overall,
      per power-of-two size class and per birth phase;
    - {b leaks} — objects that end the stream unreachable but were never
      freed, reported through the shared {!Diag} vocabulary (the
      [oracle-leak] rule) and exposed to [dmm check --leaks] via the
      {!Sanitizer}.

    Streams without any graph event degrade soundly: no object can be
    observed losing reachability, so death equals the explicit free,
    every drag is zero and no leak is reported — the oracle never
    produces a false positive on a plain manager recording. *)

type obj = {
  o_id : int;  (** allocation order; index into {!report.r_objects} *)
  o_addr : int;
  o_payload : int;
  o_gross : int;
  o_birth : int;  (** clock of the [Alloc] *)
  o_birth_phase : int;
  o_free : int option;  (** clock of the explicit [Free], if any *)
  o_death : int;  (** oracle death clock; [birth <= death <= free] *)
  o_reached : bool;  (** still reachable when the stream ended *)
}

type defects = {
  d_src_missing : int;
  d_dst_missing : int;
  d_old_mismatch : int;
  d_root_missing : int;
  d_root_underflow : int;
  d_addr_reuse : int;
}
(** Graph events that contradicted the tracked object graph (pointer
    writes from/to unknown objects, [old_dst] disagreeing with the
    tracked slot, root events on unknown objects, root underflow,
    allocation over a live address). Counted and survived: the tracked
    graph wins. *)

val no_defects : defects
val defect_count : defects -> int

type report = {
  r_events : int;
  r_graph_events : int;
  r_graph : bool;  (** [false] = degenerate oracle (no graph events seen) *)
  r_objects : obj array;
  r_freed : int;
  r_leaks : obj list;
  r_end_live : int;
  r_end_clock : int;
  r_drag : Dmm_obs.Log_hist.t;
  r_drag_by_class : (int * Dmm_obs.Log_hist.t) list;
  r_drag_by_phase : (int * Dmm_obs.Log_hist.t) list;
  r_defects : defects;
  r_phases : (int * int) list;
}

(** {1 Running the analysis}

    The forward pass takes one entry at a time — from a live run's probe
    ([Dmm_workloads.Scenario.gcheap_oracle]), a file or a socket — and
    keeps one record per object, never the events. *)

type t

val create : unit -> t
val feed : t -> Stream.entry -> unit

val finalize : t -> report
(** Backward pass + report. The state must not be fed again. *)

(** {1 Consumers} *)

val leak_diags : report -> Diag.t list
(** One [oracle-leak] diagnostic per leak, indexed by the death clock. *)

val synthesize : report -> Dmm_trace.Trace.t
(** The stream rewritten with the oracle's frees, as a trace to replay
    against any manager: allocations and phase markers in stream order,
    every dead object freed at its death clock, end-live objects left
    allocated. Block ids are the object ids, dense in allocation
    order. *)

val pp : Format.formatter -> report -> unit
