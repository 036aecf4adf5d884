(** Experiment harness glue: case-study traces, fresh baseline managers and
    the end-to-end methodology run, as used by the benches, the CLI and the
    integration tests. *)

(** {1 Case-study traces} *)

val drr_trace :
  ?traffic:Traffic.config -> ?drr:Drr.config -> unit -> Dmm_trace.Trace.t
(** Record the DRR scheduler's DM behaviour on one synthetic traffic
    trace. The run skips the simulated per-packet processing
    ([Drr.run ~simulate:false]), which changes no event. *)

val reconstruct_trace : ?config:Reconstruct.config -> unit -> Dmm_trace.Trace.t

val render_trace : ?config:Render.config -> unit -> Dmm_trace.Trace.t
(** Record the renderer's DM behaviour. The run skips the simulated work
    ([Render.run ~simulate:false]), which changes no event. *)

(** {1 Fresh managers}

    Each call returns a manager over its own private address space. *)

type maker = ?probe:Dmm_obs.Probe.t -> unit -> Dmm_core.Allocator.t
(** A fresh manager over a fresh address space; [probe] (default
    {!Dmm_obs.Probe.null}) observes both — heap growth and every
    allocation — on one logical clock. *)

val kingsley : maker
val lea : maker
val regions : maker
val obstacks : maker

val fixed_pool : maker
(** Kenwright in-band index-linked fixed-size pools
    ({!Dmm_allocators.Fixed_pool}): loop-free O(1) raw-speed baseline. *)

val buddy_bitmap : maker
(** Bitmap-driven binary buddy system ({!Dmm_allocators.Buddy_bitmap}). *)

val baselines : unit -> (string * maker) list
(** The general-purpose / manually-designed baselines of Table 1: the
    paper's four plus the two raw-speed cores (fixed-pool, buddy). *)

val custom_manager : Dmm_core.Explorer.design -> maker
(** Instantiate a custom design over a fresh address space. *)

(** Per-phase composition (Section 3.3): one atomic design per logical
    phase, a default for phases without an override. *)
type global_spec = {
  default : Dmm_core.Explorer.design;
  overrides : (int * Dmm_core.Explorer.design) list;
}

val custom_global : global_spec -> maker
(** Instantiate a global manager (atomic manager per phase) over a fresh
    address space. *)

(** {1 The methodology, end to end} *)

val design_for : ?alpha:float -> Dmm_trace.Trace.t -> Dmm_core.Explorer.design
(** Profile the trace, walk the trees in the paper's order, refine the
    run-time parameters by replaying candidates — the full Section 4/5
    flow, collapsed to a single atomic manager. [alpha] (default 0) adds
    the execution-time term of {!Dmm_core.Explorer.tradeoff_score} to the
    refinement objective. *)

val global_design_for : ?detect_phases:bool -> Dmm_trace.Trace.t -> global_spec
(** The full methodology including phase separation: a heuristic design per
    observed phase, each refined by whole-trace replay with the other
    phases' designs held fixed (one coordinate-descent pass). With
    [detect_phases] (default false), phase boundaries are recovered from
    the trace with {!Dmm_trace.Phase_detect} instead of relying on the
    application's markers. Candidates are scored by
    {!Dmm_engine.Sim.score_allocators}: a replay stops once it can no
    longer beat the round's incumbent, the phase's current design, whose
    score after the first round is the previous round's winning score.
    Rounds run in phase order. *)

val drr_paper_design : unit -> Dmm_core.Explorer.design
(** The custom manager the paper derives by hand for DRR (Section 5),
    with simulation-settled parameters left at their defaults. *)

val render_paper_design : unit -> global_spec
(** The per-phase manager for the 3D rendering case study: tag-free
    fixed-size pools for the stack-like LOD phases, a coalescing
    exact-fit manager for the compositing phase. *)

val max_footprint : Dmm_trace.Trace.t -> maker -> int
(** Replay the trace on a fresh manager; return its maximum footprint. *)
