(** The methodology driver: turns a DM-behaviour profile into a custom
    manager design (Sections 4 and 5).

    The heuristic walk traverses the trees in the Section 4.2 order and at
    each tree applies the paper's reasoning (e.g. highly variable request
    sizes => many varying block sizes, split & coalesce always, exact fit,
    single pool, doubly linked list, header with size and status — the DRR
    derivation). The run-time parameters the paper settles "via simulation"
    are refined by scoring candidate designs against a replayable workload:
    the caller supplies [score_all], typically replaying the recorded trace
    into a fresh manager per candidate and reading its maximum footprint
    ([Dmm_engine.Sim.score_all]). *)

type design = { vector : Decision_vector.t; params : Manager.params }

val pp_design : Format.formatter -> design -> unit

val design_key : design -> string
(** Canonical replay-identity key: the fourteen decision leaves in tree
    order plus every run-time parameter. Two designs with equal keys
    behave identically on every trace, so {!candidates} deduplicates by
    it and no design is scored twice in a round. *)

val heuristic_choice :
  Profile.phase_summary ->
  Decision_vector.Partial.t ->
  Decision.tree ->
  Decision.leaf list ->
  Decision.leaf
(** The per-tree selection rule: the first profile-preferred leaf among the
    legal ones (exposed so callers can narrate or instrument the walk).
    Raises [Invalid_argument] naming the tree when the legal leaf set is
    empty — an over-constrained rule set, not a walk dead-end. *)

val heuristic_vector :
  ?order:Decision.tree list -> Profile.phase_summary -> (Decision_vector.t, string) result
(** Ordered constraint-propagating walk with profile-driven leaf choice.
    With the default {!Order.paper_order} this cannot fail. *)

val heuristic_params : Profile.phase_summary -> Decision_vector.t -> Manager.params
(** Initial run-time parameters derived from the profile (size classes from
    dominant sizes, chunk granularity from the size distribution, trimming
    on). *)

val heuristic_design :
  ?order:Decision.tree list -> Profile.phase_summary -> (design, string) result

(** {1 Search progress}

    Coarse-grained events the drivers emit on the orchestrating domain
    (never from workers): one per scored batch, plus agenda/round
    announcements from multi-phase drivers
    ([Dmm_workloads.Scenario.global_design_for]). [dmm explore
    --progress] installs an observer that turns them into live
    convergence lines; the default observer ignores them. *)

type progress =
  | Agenda of { rounds : int }  (** refinement rounds the driver plans to run *)
  | Round of { label : string }  (** a planned round is starting *)
  | Batch_scored of { candidates : int; best_score : int }
      (** a candidate batch was simulated; [best_score] is the round's
          winning score (footprint in bytes under the default objective) *)

val on_progress : (progress -> unit) ref
(** Process-wide observer. Install before the run, restore after;
    observers must be fast and must not raise. *)

val progress : progress -> unit
(** Emit an event to the current observer (for drivers outside this
    module, e.g. scenario orchestration). *)

val candidates : Profile.phase_summary -> design -> design list
(** The simulation round: the heuristic design plus parameter and
    near-miss leaf variations worth trying (all constraint-valid),
    deduplicated by {!design_key} keeping first occurrences. The heuristic
    design itself is always the head of the list. The list includes the
    per-phase pool-set (B3) alternative when it is constraint-valid. *)

val tradeoff_score : alpha:float -> footprint:int -> ops:int -> int
(** Scalarised objective [footprint + alpha * ops]: the paper's closing
    remark that "trade-offs between the relevant design factors (e.g.
    improving performance consuming a little more memory footprint) are
    possible using our methodology". [alpha = 0.] is the pure footprint
    objective used everywhere else; larger [alpha] buys speed with bytes. *)

val refine_batch : score_all:(design array -> int array) -> design list -> design * int
(** Lowest score wins; ties keep the earliest candidate. The whole
    candidate array is scored in one call, so the scorer can fan out to
    worker domains ([Dmm_engine]). [score_all] must return one score per
    candidate, input-ordered. Candidate 0 is the incumbent, and its score
    must be exact. Every other candidate whose true score is below
    [scores.(0)] must get its exact score; one whose true score is >=
    [scores.(0)] may instead get any lower bound that is itself >=
    [scores.(0)], since it loses to candidate 0 either way. The winner and
    its score, which [Batch_scored] reports, are then those exact scoring
    would pick. [Dmm_engine.Sim.score_all] uses this to stop a replay once
    it can no longer win. Raises [Invalid_argument] on an empty list or a
    length-mismatched score array. *)

val explore_batch :
  ?order:Decision.tree list ->
  profile:Profile.phase_summary ->
  score_all:(design array -> int array) ->
  unit ->
  (design * int, string) result
(** Full methodology: heuristic walk, candidate generation, and one
    {!refine_batch} round over the candidates. *)

(** {1 Baseline search strategies}

    The design space has hundreds of thousands of valid combinations
    (11 million raw), which is why the paper orders the trees instead of
    searching blindly. These baselines exist to quantify that: random
    sampling needs far more simulations than the ordered walk to reach a
    comparable footprint. *)

val random_design : Dmm_util.Prng.t -> Profile.phase_summary -> design
(** A uniformly random constraint-respecting walk (random legal leaf at
    every tree of the paper order), with profile-derived run-time
    parameters. *)

val random_search_batch :
  rng:Dmm_util.Prng.t ->
  samples:int ->
  profile:Profile.phase_summary ->
  score_all:(design array -> int array) ->
  design * int
(** Best of [samples] random designs, scored in one [score_all] call.
    Design generation stays sequential on [rng] (deterministic for a given
    seed); only the scoring may fan out. Raises [Invalid_argument] when
    [samples <= 0]. *)
