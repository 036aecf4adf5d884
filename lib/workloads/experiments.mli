(** The paper's experiments as data-producing functions, shared by the
    benchmark harness and the CLI (see DESIGN.md §2 for the index). *)

type row = {
  manager : string;
  footprint : int;  (** measured maximum footprint, bytes (mean over seeds) *)
  spread_pct : float;
      (** (max - min) / mean across seeds, in percent — the paper reports
          "variations of less than 2%" over its 10 simulations *)
  paper_bytes : int option;  (** the corresponding Table 1 cell, if any *)
  ops : int;  (** abstract operation count during the replay (EXP-PERF) *)
  replay_seconds : float;
      (** mean wall-clock seconds per replay of this manager (one fresh
          manager per seed, timed on its worker domain) *)
}

type table = {
  workload : string;
  events : int;
  peak_live : int;  (** peak requested payload: the lower bound any manager faces *)
  rows : row list;  (** custom manager last *)
}

val paper_scale : bool ref
(** When true (default), workloads run at the paper's Table 1 scale; set to
    false for quick smoke runs (tests). *)

val paper_reference : string -> string -> int option
(** [paper_reference workload manager] is the corresponding Table 1 cell
    in bytes, when the paper reports one. *)

val drr_trace_seed : int -> Dmm_trace.Trace.t
(** One DRR trace at the current scale, from the given seed. *)

val reconstruct_trace_seed : int -> Dmm_trace.Trace.t
val render_trace_seed : int -> Dmm_trace.Trace.t

val drr_table : ?probe:bool -> ?seeds:int -> unit -> table
(** EXP-T1, DRR column. [seeds] independent traffic traces are averaged,
    as the paper averages 10 simulations (default 3). With [probe] (default
    false), every replay carries a {!Dmm_obs.Probe.t} and the reported
    footprint and ops are reconstructed from the event stream by a
    {!Dmm_obs.Series_sink} and {!Dmm_core.Metrics.on_event} instead of read
    from the manager's inline accounting — identical output is the
    end-to-end completeness check of the observability layer. *)

val reconstruct_table : ?probe:bool -> ?seeds:int -> unit -> table
val render_table : ?probe:bool -> ?seeds:int -> unit -> table

val table1 : ?probe:bool -> ?seeds:int -> unit -> table list
(** All three columns of Table 1. *)

val figure5 :
  ?every:int -> unit -> (string * Dmm_trace.Footprint_series.point list) list
(** EXP-F5: footprint-over-time series for Lea and the custom manager over
    one DRR run (sampled every [every] events, default 2000). *)

val breakdown_at_peak : Dmm_trace.Trace.t -> Scenario.maker -> Dmm_core.Metrics.breakdown
(** Replay to the moment the manager's footprint peaks and decompose the
    held bytes there (two-pass: find the peak event, replay up to it). *)

val breakdown_table :
  unit -> (string * (string * Dmm_core.Metrics.breakdown) list) list
(** Section 4.1 factor analysis: for every workload and manager, where the
    bytes go at the footprint peak. *)

val energy_table :
  ?model:Dmm_core.Energy.model ->
  unit ->
  (string * (string * float) list) list
(** Energy estimate (nanojoules) per workload and manager under the
    first-order model: op-count dynamic energy plus footprint leakage
    integrated over the run (the COLP'03 extension direction). *)

val order_ablation : unit -> (string * int) list
(** EXP-F4: footprint of the manager derived with the paper's traversal
    order vs. Figure 4's wrong order, on the DRR trace. *)

type static_report = {
  reserved_bytes : int;  (** design-time worst-case reservation *)
  custom_footprint : int;  (** the DM manager's maximum footprint *)
  static_overhead_pct : float;
      (** how much more the static design costs — the intro claims 22% *)
  overflows_on_other_inputs : (int * int) list;
      (** (seed, overflowing allocations) when the same static sizing meets
          inputs it was not designed for — the intro's "will not work in
          extreme cases" *)
}

val static_comparison : unit -> static_report
(** EXP-STAT: static worst-case allocation vs the custom DM manager on the
    DRR workload (sized on seed 42, stressed on other seeds). *)

val class_capacities : Dmm_trace.Trace.t -> (int * int) list
(** Per power-of-two class, the peak number of simultaneously live blocks
    in the trace: the worst case a static designer would provision for. *)

val multi_app : unit -> (string * int) list
(** EXP-MIX: DRR and the reconstruction kernel running concurrently (their
    traces interleaved). Rows: maximum footprint of the general-purpose
    baselines, of a custom manager designed for DRR alone, and of one
    designed on the mixed profile — the intro's point that concurrency is
    part of the DM behaviour to design for. *)

val search_comparison : ?samples:int -> unit -> (string * int * int) list
(** EXP-SRCH: (strategy, simulations spent, footprint) for the ordered
    methodology vs. random sampling of the valid space on the DRR trace —
    why the paper orders the trees instead of searching blindly. Always
    runs at light scale regardless of {!paper_scale}: it validates the
    search strategy, and random designs can be pathologically slow. *)

val pp_table : Format.formatter -> table -> unit
(** Render one table with improvement percentages and paper reference
    values. *)
