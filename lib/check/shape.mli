(** Free-structure shape linting: asserts the structural promises each A1
    DDT and B1 pool layout makes — address-ordered lists are sorted,
    per-size pools hold only their size class, range slots hold only their
    interval, traversals terminate (no linked cycles), cached cardinality
    and byte totals match the linked contents, and linked blocks are
    genuinely free.

    Runs over a quiesced manager ({!lint_manager}). *)

val lint_structure :
  ?label:string -> ?expect:Dmm_core.Manager.size_expectation -> Dmm_core.Free_structure.t -> Diag.t list
(** Lint one structure. [expect] adds the pool's size-class membership
    check; [label] prefixes every diagnostic. A detected cycle short-
    circuits: the traversal is capped at the recorded cardinality plus one,
    so a corrupted structure cannot hang the linter. *)

val lint_manager : Dmm_core.Manager.t -> Diag.t list
(** Every pool view ({!Dmm_core.Manager.pool_views}) plus the registry
    cross-checks of {!Dmm_core.Manager.check_invariants} (reported under
    the [manager-invariants] rule). *)
