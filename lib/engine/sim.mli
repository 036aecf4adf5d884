(** Memoised design scoring against one profiled trace.

    The methodology settles run-time parameters by simulating candidate
    managers on recorded traces (Section 4.2); this module is the engine
    behind every such simulation round. A [t] is bound to a single trace
    and caches one {!outcome} per {e canonical design key}
    ({!Dmm_core.Explorer.design_key}: all fourteen decision leaves plus
    every run-time parameter), so duplicate candidates — e.g. parameter
    variants that collide with the heuristic base — are replayed at most
    once, sequentially or in parallel.

    {!outcomes} scores a batch: cache misses are deduplicated by key and
    fanned out through {!Pool.map} (fresh manager and address space per
    replay, so the tasks share nothing), then the table is filled from the
    parent domain. Results are therefore identical to replaying every
    design sequentially, whatever [DMM_JOBS] says.

    Every replay is counted in [dmm_sim_*]; the replayed events counter
    [dmm_search_replayed_events_total] adds the events a replay actually
    played, so a replay stopped by {!score_all}'s bound counts only its
    prefix. *)

type outcome = {
  footprint : int;  (** maximum memory footprint of the replay, bytes *)
  ops : int;  (** abstract operation count of the replay *)
}

type t

val create : Dmm_trace.Trace.t -> t
(** Bind a simulator to one trace. The trace is scanned once for its peak
    live-block count, which pre-sizes the replay and manager registries of
    every subsequent replay. *)

val outcome : t -> Dmm_core.Explorer.design -> outcome
(** Memoised single-design replay (always on the calling domain). *)

val outcomes : t -> Dmm_core.Explorer.design array -> outcome array
(** Memoised batch replay, input-ordered; unique cache misses run through
    {!Pool.map}. *)

val sanitize : t -> Dmm_core.Explorer.design -> Dmm_check.Sanitizer.report
(** Replay the design live with the full {!Dmm_check.Sanitizer} (heap
    invariants plus design conformance) fed from the replay's probe, one
    event at a time — the [explore --check] safety net on a winning
    candidate, in memory bounded by the live set. Never memoised (the
    events must exist), but counted in {!replays}. *)

val score_all : ?alpha:float -> t -> Dmm_core.Explorer.design array -> int array
(** [Explorer.tradeoff_score ~alpha] ([alpha] defaults to [0.], the pure
    footprint objective) of each design, for [Explorer.*_batch] drivers,
    bounded by the incumbent as {!Dmm_core.Explorer.refine_batch} allows:
    candidate 0 is scored exactly first (memo or one replay), then the
    remaining unique misses run through {!Pool.map}, each stopped as soon
    as its running score reaches candidate 0's. A stopped candidate
    answers with that running score, a lower bound that is >= candidate
    0's; every other answer is exact. Stopped outcomes never enter the
    memo. Use {!outcomes} where every score must be exact. *)

val score_allocators :
  ?alpha:float -> ?incumbent:int -> t -> (unit -> Dmm_core.Allocator.t) array -> int array
(** {!score_all} for candidates the memo cannot key, such as a multi-phase
    driver's whole global-manager specs: [makes.(i) ()] builds candidate
    [i]'s fresh allocator (on a worker domain). [incumbent] is candidate
    0's exact score when the caller already knows it, which skips its
    replay. Every replay is counted in {!replays}, none as memo traffic. *)

val hits : t -> int
(** Designs served from the memo table so far (including duplicates inside
    a single {!outcomes} batch). *)

val misses : t -> int
(** Unmemoised queries so far. *)

val replays : t -> int
(** Actual trace replays performed so far (memo misses, {!sanitize}
    replays and {!score_allocators} runs), stopped ones included. *)

val stopped : t -> int
(** Replays an incumbent bound stopped before the end of the trace. *)
