(** Heap sanitizer: the allocator contract, checked over an
    allocation-event stream — fed live from a replay's probe, or read
    back from a recording without re-running the workload.

    Two passes over the stream, both prefix-closed:

    - {b Heap invariants} — design-independent laws: live ranges never
      overlap, every free hits a live address exactly once with the payload
      its allocation recorded, split and coalesce conserve bytes
      ([taken + remainder = parent]; the absorbed block lies strictly
      inside the merged extent), and the sbrk/trim ledger always covers the
      live payload.

    - {b Design conformance} — given the {!Dmm_core.Explorer.design} the
      stream claims to come from: disabled mechanisms stay silent (A5
      arming and the D2/E2 never-policies), sizes respect the A2 regime and
      the E1/D1 bounds plus the layout's minimum block size, payload
      addresses respect the tag layout and alignment, and a shadow free map
      replayed from the events cross-checks the C1 fit promise — best/exact
      fit must return the minimal adequate block, no fit may grow the heap
      past an adequate free block, and coalesces must merge two adjacent
      free blocks. The shadow map is sound only in the varying-size regime
      (fixed regimes carve slabs without events); fit checks further
      require a pool layout whose search covers every adequate block
      (single pool or range pools).

    Both passes are skipped once an event's clock differs from its position
    (the integrity gate of {!feed}), so a tampered record yields the single
    [incomplete-stream] finding rather than phantom violations.

    The invariants pass keeps its live ranges in a {!Dmm_util.Int_treap}:
    one descent binds an allocation's address and finds its neighbours,
    and a clean event allocates nothing, which is what [dmm serve] runs
    on every stream. Any [int] is an address or a size: no sum of stream
    fields wraps, so an overlap, an ill-fitting tag or a live payload
    past the bytes held is caught near [max_int] as anywhere else. A
    re-allocation over a live address overwrites its range. The
    conformance pass keeps a persistent [Map] for its shadow free map,
    because it snapshots that map at each fit and each sbrk and
    persistence makes a snapshot O(1). *)

type report = {
  events : int;
  diags : Diag.t list;  (** stream order within each pass *)
  conformance_checked : bool;
}

val clean : report -> bool

(** {1 Checking a stream}

    The passes advance one event at a time; memory is bounded by the
    live-block maps, never by the stream length. This is how the ingest
    daemon sanitizes sockets online, how [dmm check] reads trace files
    of either format without materialising them, and how a live replay
    is checked: attach [fun clock event -> feed st { clock; event }] to
    the replay's probe before the manager is built, then {!finalize}. *)

type incremental

val start : ?design:Dmm_core.Explorer.design -> unit -> incremental
(** A fresh check: the integrity gate, then invariants, then (when
    [design] is given) conformance. If the design itself violates
    {!Dmm_core.Constraints}, those violations (lifted via
    {!Diag.of_constraint}) stand in for the conformance findings — a
    stream cannot conform to an invalid design. *)

val feed : incremental -> Stream.entry -> unit
(** Feed the next event. The integrity gate is applied positionally: the
    [n]th event fed must carry clock [n], otherwise the whole run
    degenerates to the single [incomplete-stream] finding (events keep
    being counted). *)

val finalize : incremental -> report
(** Collect the verdict. The incremental state must not be fed again. *)
