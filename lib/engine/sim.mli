(** Design scoring against one profiled trace.

    The methodology settles run-time parameters by simulating candidate
    managers on recorded traces (Section 4.2); this module is the engine
    behind every such simulation round. A [t] is bound to a single trace
    and replays every design it is given into a fresh manager and address
    space, so the tasks share nothing and fan out through {!Pool.map}.
    Results are input-ordered and identical to replaying every design
    sequentially, whatever [DMM_JOBS] says. Nothing is cached: the search
    hands each round deduplicated candidates
    ({!Dmm_core.Explorer.candidates}), so no design recurs.

    Every replay is counted in [dmm_sim_*]; the replayed events counter
    [dmm_search_replayed_events_total] adds the events a replay actually
    played, so a replay stopped by {!score_allocators}'s bound counts only
    its prefix. *)

type outcome = {
  footprint : int;  (** maximum memory footprint of the replay, bytes *)
  ops : int;  (** abstract operation count of the replay *)
}

type t

val create : Dmm_trace.Trace.t -> t
(** Bind a simulator to one trace. The trace is scanned once for its peak
    live-block count, which pre-sizes the replay and manager registries of
    every subsequent replay. *)

val outcomes : t -> Dmm_core.Explorer.design array -> outcome array
(** Exact replay of every design, input-ordered, through {!Pool.map}. *)

val sanitize : t -> Dmm_core.Explorer.design -> Dmm_check.Sanitizer.report
(** Replay the design live with the full {!Dmm_check.Sanitizer} (heap
    invariants plus design conformance) fed from the replay's probe, one
    event at a time — the [explore --check] safety net on a winning
    candidate, in memory bounded by the live set. Counted in
    {!replays}. *)

val score_allocators :
  ?alpha:float -> ?incumbent:int -> t -> (unit -> Dmm_core.Allocator.t) array -> int array
(** [Explorer.tradeoff_score ~alpha] ([alpha] defaults to [0.], the pure
    footprint objective) of each candidate, for [Explorer.*_batch]
    drivers, bounded by the incumbent as {!Dmm_core.Explorer.refine_batch}
    allows. [makes.(i) ()] builds candidate [i]'s fresh allocator (on a
    worker domain). Candidate 0 is replayed exactly first, unless
    [incumbent] gives its exact score; then the other candidates run
    through {!Pool.map}, each stopped as soon as its running score
    reaches candidate 0's. A stopped candidate answers with that running
    score, a lower bound that is >= candidate 0's; every other answer is
    exact. Use {!outcomes} where every score must be exact. *)

val score_all : ?alpha:float -> t -> Dmm_core.Explorer.design array -> int array
(** {!score_allocators} over designs, each built into a fresh
    {!Dmm_core.Manager}. *)

val replays : t -> int
(** Trace replays performed so far ({!outcomes}, {!sanitize} and
    {!score_allocators} runs), stopped ones included. *)

val stopped : t -> int
(** Replays an incumbent bound stopped before the end of the trace. *)
