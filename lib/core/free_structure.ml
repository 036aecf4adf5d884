open Decision

(* The three lists share one flat slot arena: blocks park in parallel
   unboxed arrays, so the fit scans chase int indices through
   [addrs]/[sizes]/[nxt] instead of pointer-hopping across heap-allocated
   nodes. The physical [Block.t] records are retained in [blocks] because
   managers mutate and re-insert the very records they take out. Slots are
   recycled through a free chain threaded through [nxt]. *)
module Flat = struct
  type t = {
    mutable blocks : Block.t array; (* slot -> the physical block record *)
    mutable addrs : int array; (* slot -> addr, scan key without a deref *)
    mutable sizes : int array; (* slot -> size at insert time *)
    mutable nxt : int array; (* slot -> next slot | -1 *)
    mutable prv : int array; (* slot -> prev slot | -1 *)
    mutable head : int;
    mutable tail : int;
    mutable free_slot : int; (* head of the free-slot chain (via nxt) *)
    mutable visited : int; (* nodes the last scan visited *)
    dummy : Block.t;
  }

  let create () =
    {
      blocks = [||];
      addrs = [||];
      sizes = [||];
      nxt = [||];
      prv = [||];
      head = -1;
      tail = -1;
      free_slot = -1;
      visited = 0;
      dummy = Block.v ~addr:0 ~size:1 ~status:Block.Free ~run_id:(-1);
    }

  let grow t =
    let old = Array.length t.nxt in
    let cap = max 64 (old * 2) in
    let blocks = Array.make cap t.dummy in
    let addrs = Array.make cap 0 in
    let sizes = Array.make cap 0 in
    let nxt = Array.make cap (-1) in
    let prv = Array.make cap (-1) in
    Array.blit t.blocks 0 blocks 0 old;
    Array.blit t.addrs 0 addrs 0 old;
    Array.blit t.sizes 0 sizes 0 old;
    Array.blit t.nxt 0 nxt 0 old;
    Array.blit t.prv 0 prv 0 old;
    for i = old to cap - 1 do
      nxt.(i) <- (if i = cap - 1 then t.free_slot else i + 1)
    done;
    t.blocks <- blocks;
    t.addrs <- addrs;
    t.sizes <- sizes;
    t.nxt <- nxt;
    t.prv <- prv;
    t.free_slot <- old

  (* The member block remembers its own slot ([Block.fs_slot]); membership
     is the physical-identity check below, so no addr -> slot table is
     needed at all. A block is in at most one structure at a time, exactly
     as in a real allocator. *)

  let alloc_slot t (b : Block.t) =
    if t.free_slot < 0 then grow t;
    let s = t.free_slot in
    t.free_slot <- t.nxt.(s);
    t.blocks.(s) <- b;
    t.addrs.(s) <- b.addr;
    t.sizes.(s) <- b.size;
    b.fs_slot <- s;
    s

  let release_slot t s =
    t.blocks.(s).Block.fs_slot <- -1;
    t.blocks.(s) <- t.dummy;
    t.nxt.(s) <- t.free_slot;
    t.free_slot <- s

  let mem t (b : Block.t) =
    let s = b.fs_slot in
    s >= 0 && s < Array.length t.blocks && t.blocks.(s) == b

  (* Slot holding [b], or -1. The fast path is the O(1) identity check; the
     address scan backs up callers that pass a reconstructed twin of the
     stored block (same address, fresh record), as the boundary-tag
     managers do when they rebuild neighbours from in-band tags. *)
  let rec slot_at (addrs : int array) (nxt : int array) (addr : int) (cur : int) =
    if cur < 0 || addrs.(cur) = addr then cur else slot_at addrs nxt addr nxt.(cur)

  let slot_of t (b : Block.t) = if mem t b then b.fs_slot else slot_at t.addrs t.nxt b.addr t.head

  let push_front t (b : Block.t) =
    let s = alloc_slot t b in
    t.prv.(s) <- -1;
    t.nxt.(s) <- t.head;
    if t.head >= 0 then t.prv.(t.head) <- s else t.tail <- s;
    t.head <- s

  (* The loops below return a slot (-1 = none) and [stop] leaves the nodes
     they visited in [t.visited], so a scan allocates nothing. Their int
     arguments are annotated: unannotated, [=] and [<] on the array reads
     would be polymorphic compares. *)
  let stop t (visited : int) (slot : int) =
    t.visited <- visited;
    slot

  (* Successor of [addr] in address order (-1 = append). *)
  let rec find_pos t (addrs : int array) (nxt : int array) (addr : int) (cur : int)
      (visited : int) =
    if cur < 0 then stop t visited (-1)
    else if addrs.(cur) > addr then stop t (visited + 1) cur
    else find_pos t addrs nxt addr nxt.(cur) (visited + 1)

  (* Insert keeping ascending address order; returns the nodes visited: the
     successor's 0-based index + 1, or the length when appending. *)
  let insert_sorted t (b : Block.t) =
    let succ = find_pos t t.addrs t.nxt b.addr t.head 0 in
    let s = alloc_slot t b in
    (if succ < 0 then begin
       (* Append at tail. *)
       t.prv.(s) <- t.tail;
       t.nxt.(s) <- -1;
       if t.tail >= 0 then t.nxt.(t.tail) <- s else t.head <- s;
       t.tail <- s
     end
     else begin
       t.nxt.(s) <- succ;
       t.prv.(s) <- t.prv.(succ);
       if t.prv.(succ) >= 0 then t.nxt.(t.prv.(succ)) <- s else t.head <- s;
       t.prv.(succ) <- s
     end);
    t.visited

  let unlink t s =
    let p = t.prv.(s) and n = t.nxt.(s) in
    if p >= 0 then t.nxt.(p) <- n else t.head <- n;
    if n >= 0 then t.prv.(n) <- p else t.tail <- p;
    release_slot t s

  let remove t (b : Block.t) =
    let s = slot_of t b in
    if s < 0 then raise Not_found else unlink t s

  (* Linear removal for the singly linked list: walk from the head, return
     the 1-based position of the match as the traversal charge. *)
  let rec remove_at t (addr : int) (cur : int) (visited : int) =
    if cur < 0 then raise Not_found
    else if t.addrs.(cur) = addr then begin
      unlink t cur;
      visited + 1
    end
    else remove_at t addr t.nxt.(cur) (visited + 1)

  let remove_scan t (b : Block.t) = remove_at t b.addr t.head 0

  let iter f t =
    let rec go s =
      if s >= 0 then begin
        let next = t.nxt.(s) in
        f t.blocks.(s);
        go next
      end
    in
    go t.head

  (* The fit scans below are the hottest loops in the replay engine: every
     abstract step the metrics charge corresponds to one iteration here, so
     per-step cost is all that is left to optimise. The loops are
     specialised per fit policy (no per-node dispatch) and use unsafe array
     reads — every slot index reachable through [head]/[nxt] is a live slot
     below the arrays' length by construction. *)

  let rec scan_first t (nxt : int array) (sizes : int array) (need : int) (cur : int)
      (steps : int) =
    if cur < 0 then stop t steps (-1)
    else if Array.unsafe_get sizes cur >= need then stop t (steps + 1) cur
    else scan_first t nxt sizes need (Array.unsafe_get nxt cur) (steps + 1)

  (* Exact and best fit share a loop: stop on an exact hit, otherwise keep
     the smallest block that fits (first encountered wins ties). *)
  let rec scan_exact t (nxt : int array) (sizes : int array) (need : int) (cur : int)
      (best : int) (best_sz : int) (steps : int) =
    if cur < 0 then stop t steps best
    else
      let sz = Array.unsafe_get sizes cur in
      let steps = steps + 1 in
      if sz = need then stop t steps cur
      else if sz > need && sz < best_sz then
        scan_exact t nxt sizes need (Array.unsafe_get nxt cur) cur sz steps
      else scan_exact t nxt sizes need (Array.unsafe_get nxt cur) best best_sz steps

  (* Full scan keeping the largest fitting block (earlier node wins ties). *)
  let rec scan_worst t (nxt : int array) (sizes : int array) (need : int) (cur : int)
      (best : int) (best_sz : int) (steps : int) =
    if cur < 0 then stop t steps best
    else
      let sz = Array.unsafe_get sizes cur in
      let steps = steps + 1 in
      if sz >= need && not (best >= 0 && best_sz >= sz) then
        scan_worst t nxt sizes need (Array.unsafe_get nxt cur) cur sz steps
      else scan_worst t nxt sizes need (Array.unsafe_get nxt cur) best best_sz steps

  (* Next fit with a roving pointer: first fitting node not equal to the
     previous winner; the skipped previous winner is the fallback. *)
  let rec scan_next t (need : int) (after : int) (cur : int) (best : int) (steps : int) =
    if cur < 0 then stop t steps best
    else
      let steps = steps + 1 in
      let next = Array.unsafe_get t.nxt cur in
      if Array.unsafe_get t.sizes cur < need then scan_next t need after next best steps
      else if Array.unsafe_get t.addrs cur <> after then stop t steps cur
      else scan_next t need after next (if best < 0 then cur else best) steps

  (* The chosen slot (-1 = none); the nodes visited are in [t.visited].
     [after] is the roving pointer (-1 = none); without one, next fit is
     first fit. *)
  let scan_fit t fit need ~after =
    match fit with
    | First_fit -> scan_first t t.nxt t.sizes need t.head 0
    | Next_fit ->
      if after < 0 then scan_first t t.nxt t.sizes need t.head 0
      else scan_next t need after t.head (-1) 0
    | Exact_fit | Best_fit -> scan_exact t t.nxt t.sizes need t.head (-1) max_int 0
    | Worst_fit -> scan_worst t t.nxt t.sizes need t.head (-1) 0 0
end

module Size_key = struct
  type t = int * int (* size, addr *)

  let compare (s1, a1) (s2, a2) =
    match compare (s1 : int) s2 with 0 -> compare (a1 : int) a2 | c -> c
end

module Size_map = Map.Make (Size_key)

type impl =
  | Singly of Flat.t
  | Doubly of Flat.t
  | By_addr of Flat.t
  | Tree of { mutable map : Block.t Size_map.t }

type t = {
  structure : block_structure;
  impl : impl;
  mutable steps : int;
  mutable cardinal : int;
  mutable total_bytes : int;
  mutable last_fit_addr : int; (* roving pointer for next fit; -1 = none *)
}

let create structure =
  let impl =
    match structure with
    | Singly_linked_list -> Singly (Flat.create ())
    | Doubly_linked_list -> Doubly (Flat.create ())
    | Address_ordered_list -> By_addr (Flat.create ())
    | Size_ordered_tree -> Tree { map = Size_map.empty }
  in
  {
    structure;
    impl;
    steps = 0;
    cardinal = 0;
    total_bytes = 0;
    last_fit_addr = -1;
  }

let structure t = t.structure
let cardinal t = t.cardinal
let total_bytes t = t.total_bytes
let steps t = t.steps

let charge t n = t.steps <- t.steps + n

let log2_card t = if t.cardinal <= 1 then 1 else Dmm_util.Size.log2_ceil t.cardinal

let mem t (b : Block.t) =
  match t.impl with
  | Singly f | Doubly f | By_addr f -> Flat.mem f b
  | Tree tr -> Size_map.mem (b.size, b.addr) tr.map

let insert t (b : Block.t) =
  if mem t b then invalid_arg "Free_structure.insert: duplicate address";
  (match t.impl with
  | Singly f | Doubly f ->
    charge t 1;
    Flat.push_front f b
  | By_addr f ->
    let visited = Flat.insert_sorted f b in
    charge t (visited + 1)
  | Tree tr ->
    charge t (log2_card t);
    tr.map <- Size_map.add (b.size, b.addr) b tr.map);
  t.cardinal <- t.cardinal + 1;
  t.total_bytes <- t.total_bytes + b.size

let remove t (b : Block.t) =
  (match t.impl with
  | Singly f -> charge t (Flat.remove_scan f b)
  | Doubly f | By_addr f ->
    charge t 1;
    Flat.remove f b
  | Tree tr ->
    if not (Size_map.mem (b.size, b.addr) tr.map) then raise Not_found;
    charge t (log2_card t);
    tr.map <- Size_map.remove (b.size, b.addr) tr.map);
  t.cardinal <- t.cardinal - 1;
  t.total_bytes <- t.total_bytes - b.size;
  if t.last_fit_addr = b.addr then t.last_fit_addr <- -1

let iter f t =
  match t.impl with
  | Singly fl | Doubly fl | By_addr fl -> Flat.iter f fl
  | Tree tr -> Size_map.iter (fun _ b -> f b) tr.map

(* Deliberately skips the ordering and duplicate checks [insert] performs:
   the shape-linter test suite uses this to plant corruptions (out-of-order
   nodes, stale sizes) that a correct manager could never produce. *)
let unsafe_push_front t (b : Block.t) =
  (match t.impl with
  | Singly f | Doubly f | By_addr f -> Flat.push_front f b
  | Tree tr -> tr.map <- Size_map.add (b.size, b.addr) b tr.map);
  t.cardinal <- t.cardinal + 1;
  t.total_bytes <- t.total_bytes + b.size

let to_list t =
  let acc = ref [] in
  iter (fun b -> acc := b :: !acc) t;
  List.rev !acc

let take_from_flat t f fit need ~after =
  let slot = Flat.scan_fit f fit need ~after in
  charge t f.Flat.visited;
  if slot < 0 then Block.none
  else begin
    let b = f.Flat.blocks.(slot) in
    Flat.unlink f slot;
    b
  end

(* Empty-structure fast path: the scans below charge exactly 0 on an empty
   list (no node visited) and [log2_card] = 1 on an empty tree, so the
   early exit can charge that without touching the structure. This is what
   makes walking a run of empty bins cheap for the segregated managers. *)
let take t fit need =
  if t.cardinal = 0 then begin
    (match t.impl with Tree _ -> charge t 1 | Singly _ | Doubly _ | By_addr _ -> ());
    Block.none
  end
  else
    let b =
      match t.impl with
      (* A singly linked list keeps no roving pointer: next fit is first fit. *)
      | Singly f -> take_from_flat t f fit need ~after:(-1)
      | Doubly f | By_addr f -> take_from_flat t f fit need ~after:t.last_fit_addr
      | Tree tr -> (
        charge t (log2_card t);
        let candidate =
          match fit with
          | First_fit | Next_fit | Best_fit | Exact_fit ->
            Size_map.find_first_opt (fun (s, _) -> s >= need) tr.map
          | Worst_fit -> Size_map.max_binding_opt tr.map
        in
        match candidate with
        | Some ((s, _), b) when s >= need ->
          tr.map <- Size_map.remove (s, b.Block.addr) tr.map;
          b
        | Some _ | None -> Block.none)
    in
    if b != Block.none then begin
      t.cardinal <- t.cardinal - 1;
      t.total_bytes <- t.total_bytes - b.Block.size;
      t.last_fit_addr <- b.Block.addr
    end;
    b

let take_fit t fit need =
  let b = take t fit need in
  if b == Block.none then None else Some b
