(** Free-block organisations — the DDTs of decision tree A1 — and the fit
    algorithms of tree C1, whose cost depends on the structure.

    All four structures hold a multiset of blocks and differ in order and
    traversal cost, which the [steps] counter makes observable. Below, n
    is the number of free blocks before the operation and log is
    ⌈log2 n⌉, at least 1. The specification property test checks every
    rule against a model, for all four structures and five fits.

    {b Order} ({!iter}): the singly and doubly linked lists newest first,
    the address-ordered list by address, the tree by (size, address).

    {b Choice} ({!take}), among the blocks in structure order:
    - {e first fit}: the first adequate block (size >= need);
    - {e exact} and {e best fit}: the first exact match; otherwise the
      smallest adequate block, the earliest winning ties (the paper's
      custom managers split the rest);
    - {e worst fit}: the largest adequate block, the earliest winning
      ties;
    - {e next fit} on the doubly linked and address-ordered lists: the
      first adequate block that is not the last block taken, falling
      back to that block when there is none; on the singly linked list
      next fit is first fit. Removing the last-taken block clears the
      pointer;
    - the tree takes the smallest (size, address) with size >= need, and
      for worst fit its largest block if that block is adequate.

    {b Step charges}:
    - {!insert}: 1 on the two unordered lists; on the address-ordered
      list k + 2 when the successor is at index k and n + 1 when the
      block is appended; log on the tree;
    - {!remove}: the 1-based position on the singly linked list, log on
      the tree, 1 on the doubly linked and address-ordered lists even
      when the block is absent. An absent block costs 0 on the singly
      linked list and the tree;
    - {!take}: on a list the 1-based index of the node where the scan
      stops, or n for a full scan (0 when empty); log on the tree, 1
      when it is empty. *)

type t

val create : Decision.block_structure -> t

val structure : t -> Decision.block_structure

val insert : t -> Block.t -> unit
(** Raises [Invalid_argument] if a block at the same address is present. *)

val remove : t -> Block.t -> unit
(** Raises [Not_found] if the block is not present. *)

val mem : t -> Block.t -> bool

val cardinal : t -> int

val total_bytes : t -> int
(** Sum of the sizes of the free blocks held. *)

val take : t -> Decision.fit_algorithm -> int -> Block.t
(** [take t fit need] finds a block per the fit algorithm and removes it
    from the structure; {!Block.none} when none fits. Allocates nothing
    on the list structures. *)

val take_fit : t -> Decision.fit_algorithm -> int -> Block.t option
(** {!take} with [None] for {!Block.none}. *)

val iter : (Block.t -> unit) -> t -> unit
(** Iteration in structure order. *)

val unsafe_push_front : t -> Block.t -> unit
(** Insert at the structure's head {e bypassing} ordering and duplicate
    checks. Fault injection only: lets tests corrupt a structure (e.g.
    break the address order of an address-ordered list) and assert the
    shape linter notices. Never call this from manager code. *)

val to_list : t -> Block.t list

val steps : t -> int
(** Cumulative traversal steps since creation (cost model for EXP-PERF). *)
