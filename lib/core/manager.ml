open Decision
module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Int_table = Dmm_util.Int_table

type params = {
  word_size : int;
  alignment : int;
  fixed_block_size : int;
  size_classes : int list;
  max_coalesced_size : int option;
  min_split_remainder : int;
  chunk_request : int;
  return_to_system : bool;
  trim_threshold : int;
  deferred_interval : int;
}

let default_params =
  {
    word_size = 4;
    alignment = 8;
    fixed_block_size = 64;
    size_classes = [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768 ];
    max_coalesced_size = None;
    min_split_remainder = 0;
    chunk_request = 4096;
    return_to_system = false;
    trim_threshold = 4096;
    deferred_interval = 64;
  }

let pow2_classes ~min ~max =
  if min <= 0 || not (Size.is_power_of_two min) || not (Size.is_power_of_two max) then
    invalid_arg "Manager.pow2_classes: bounds must be powers of two";
  let rec go acc c = if c > max then List.rev acc else go (c :: acc) (c * 2) in
  go [] min

type pools =
  | P_single of Free_structure.t
  | P_by_size of (int, Free_structure.t) Hashtbl.t
  | P_by_range of Free_structure.t array (* one slot per class + final overflow *)

type t = {
  vec : Decision_vector.t;
  params : params;
  space : Address_space.t;
  metrics : Metrics.t;
  by_base : Block.t Int_table.t;
  mutable phys_first : Block.t; (* lowest-addressed block; chain head *)
  mutable phys_last : Block.t; (* highest-addressed block; chain tail *)
  pools : pools;
  classes : int array; (* ascending gross ceilings; empty in varying regimes *)
  header_bytes : int;
  tag_bytes : int;
  min_block : int;
  mutable last_run_id : int;
  mutable last_run_end : int;
  mutable frees_since_sweep : int;
  mutable held_bytes : int; (* counted here: a global manager shares its space *)
  mutable max_held_bytes : int;
}

let vector t = t.vec
let params t = t.params
let metrics t = Metrics.snapshot t.metrics
let live_payload t = Metrics.live_payload t.metrics
let current_footprint t = t.held_bytes

(* --- configuration derivation ------------------------------------------- *)

let link_words = function
  | Singly_linked_list -> 1
  | Doubly_linked_list | Address_ordered_list -> 2
  | Size_ordered_tree -> 3

let uses_fixed_classes vec =
  match vec.Decision_vector.a2 with
  | One_fixed_size | Many_fixed_sizes -> true
  | Many_varying_sizes -> false

let can_split = Decision_vector.can_split
let can_coalesce = Decision_vector.can_coalesce

type layout = {
  l_header_bytes : int;
  l_footer_bytes : int;
  l_tag_bytes : int;
  l_min_block : int;
}

(* The block geometry a (vector, params) pair implies — shared with the
   offline sanitizer, which must recompute payload-to-base offsets and
   minimum block sizes without building a manager. *)
let layout (params : params) vec =
  let l_header_bytes =
    match vec.Decision_vector.a3 with
    | Header | Header_and_footer -> params.word_size
    | No_tag | Footer -> 0
  in
  let l_footer_bytes =
    match vec.Decision_vector.a3 with
    | Footer | Header_and_footer -> params.word_size
    | No_tag | Header -> 0
  in
  let l_tag_bytes = l_header_bytes + l_footer_bytes in
  let l_min_block =
    let links = link_words vec.Decision_vector.a1 * params.word_size in
    Size.align_up (max (l_tag_bytes + links) (l_tag_bytes + params.alignment))
      params.alignment
  in
  { l_header_bytes; l_footer_bytes; l_tag_bytes; l_min_block }

let create ?(expected_live = 256) ?(params = default_params) vec space =
  (match Constraints.check vec with
  | [] -> ()
  | violations ->
    let msg =
      Format.asprintf "Manager.create: invalid decision vector:@ %a"
        (Format.pp_print_list ~pp_sep:Format.pp_print_newline Constraints.pp_violation)
        violations
    in
    invalid_arg msg);
  if params.word_size <= 0 || params.alignment <= 0 || params.chunk_request <= 0 then
    invalid_arg "Manager.create: non-positive parameter";
  let { l_header_bytes = header_bytes; l_tag_bytes = tag_bytes; l_min_block = min_block; _ }
      =
    layout params vec
  in
  let classes =
    if uses_fixed_classes vec then begin
      let cs =
        match vec.Decision_vector.a2 with
        | One_fixed_size -> [ params.fixed_block_size ]
        | Many_fixed_sizes | Many_varying_sizes -> params.size_classes
      in
      if cs = [] then invalid_arg "Manager.create: fixed-size regime needs size classes";
      let arr = Array.of_list (List.sort_uniq compare cs) in
      if arr.(0) < min_block then
        invalid_arg "Manager.create: smallest size class below minimum block size";
      arr
    end
    else [||]
  in
  let pools =
    match vec.Decision_vector.b1 with
    | Single_pool -> P_single (Free_structure.create vec.Decision_vector.a1)
    | Pool_per_size -> P_by_size (Hashtbl.create 32)
    | Pool_per_size_range ->
      let n = if Array.length classes > 0 then Array.length classes + 1 else 32 + 1 in
      P_by_range (Array.init n (fun _ -> Free_structure.create vec.Decision_vector.a1))
  in
  let dummy_block = Block.v ~addr:0 ~size:1 ~status:Block.Free ~run_id:(-1) in
  {
    vec;
    params;
    space;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
    by_base = Int_table.create ~size:(max 16 expected_live) dummy_block;
    phys_first = Block.none;
    phys_last = Block.none;
    pools;
    classes;
    header_bytes;
    tag_bytes;
    min_block;
    last_run_id = 0;
    last_run_end = -1;
    frees_since_sweep = 0;
    held_bytes = 0;
    max_held_bytes = 0;
  }

(* --- size classification -------------------------------------------------- *)

(* Index of the smallest class ceiling >= gross, or -1 for oversize
   requests. *)
let rec ceiling_from (classes : int array) (gross : int) (i : int) =
  if i >= Array.length classes then -1
  else if classes.(i) >= gross then i
  else ceiling_from classes gross (i + 1)

let class_ceiling t gross = ceiling_from t.classes gross 0

(* Gross block size serving a request of [payload] bytes. *)
let gross_of_request t payload =
  let base =
    Int.max t.min_block (Size.align_up (payload + t.tag_bytes) t.params.alignment)
  in
  let i = class_ceiling t base in
  if i < 0 then base else t.classes.(i)

(* Range-pool index for a block of gross size [z]. In varying regimes the
   range boundaries are synthetic power-of-two buckets. *)
let range_index t z =
  match t.pools with
  | P_by_range arr ->
    let n = Array.length arr in
    if Array.length t.classes > 0 then begin
      let i = class_ceiling t z in
      if i < 0 then n - 1 else i
    end
    else begin
      let i = Size.log2_ceil z in
      if i >= n - 1 then n - 1 else i
    end
  | P_single _ | P_by_size _ -> 0

let pool_lookup_cost t index =
  match t.vec.Decision_vector.b2 with
  | Pool_array -> 1
  | Pool_linked_list -> index + 1

let pool_for_size t z =
  match t.pools with
  | P_single fs ->
    Metrics.add_ops t.metrics 1;
    fs
  | P_by_size tbl ->
    Metrics.add_ops t.metrics (pool_lookup_cost t 1);
    (match Hashtbl.find tbl z with
    | fs -> fs
    | exception Not_found ->
      let fs = Free_structure.create t.vec.Decision_vector.a1 in
      Hashtbl.replace tbl z fs;
      fs)
  | P_by_range arr ->
    let i = range_index t z in
    Metrics.add_ops t.metrics (pool_lookup_cost t i);
    arr.(i)

(* --- registries ------------------------------------------------------------ *)

(* Blocks carry their own address-ordered chain ([Block.phys_prev/next]),
   so neighbour discovery during coalescing is a field read instead of a
   hash lookup. [register] splices [b] in right after [after] —
   [Block.none] for an empty chain. New system chunks append after
   [t.phys_last] (sbrk grows monotonically); split remainders go after
   their parent. *)
let register t ~after (b : Block.t) =
  Int_table.replace t.by_base b.addr b;
  let n = if after == Block.none then Block.none else after.Block.phys_next in
  b.phys_prev <- after;
  b.phys_next <- n;
  if after != Block.none then after.Block.phys_next <- b else t.phys_first <- b;
  if n != Block.none then n.Block.phys_prev <- b else t.phys_last <- b;
  Metrics.add_ops t.metrics 1

let unregister t (b : Block.t) =
  Int_table.remove t.by_base b.addr;
  let p = b.phys_prev and n = b.phys_next in
  if p != Block.none then p.phys_next <- n else if t.phys_first == b then t.phys_first <- n;
  if n != Block.none then n.phys_prev <- p
  else if t.phys_last == b then t.phys_last <- p;
  b.phys_prev <- Block.none;
  b.phys_next <- Block.none;
  Metrics.add_ops t.metrics 1

let insert_free t (b : Block.t) =
  b.status <- Free;
  Free_structure.insert (pool_for_size t b.size) b;
  Metrics.add_ops t.metrics 1

let remove_free t (b : Block.t) = Free_structure.remove (pool_for_size t b.size) b

(* --- splitting (category E) ------------------------------------------------ *)

(* Largest class ceiling that fits in [remainder], 0 when none does. *)
let rec largest_within (classes : int array) (remainder : int) (i : int) (acc : int) =
  if i >= Array.length classes || classes.(i) > remainder then acc
  else largest_within classes remainder (i + 1) classes.(i)

(* [b] is not in any free structure when called. Splits the tail off [b]
   when the policy allows, registering the remainder as a free block. *)
let try_split t (b : Block.t) gross =
  let remainder = b.size - gross in
  if remainder <= 0 || not (can_split t.vec) then ()
  else begin
    let threshold =
      match t.vec.Decision_vector.e2 with
      | Always -> Int.max t.min_block (Int.max t.params.min_split_remainder 1)
      | Deferred -> 4 * t.min_block
      | Never -> max_int
    in
    (* E1 bounds the sizes a split may produce. *)
    let split_off =
      match t.vec.Decision_vector.e1 with
      | Not_fixed -> if remainder >= threshold then remainder else 0
      | One_size ->
        let unit = Int.max t.min_block t.params.min_split_remainder in
        if remainder >= Int.max unit threshold then remainder / unit * unit else 0
      | Many_fixed ->
        let c = largest_within t.classes remainder 0 0 in
        if c >= threshold && c >= t.min_block then c else 0
    in
    if split_off >= t.min_block then begin
      let parent = b.size in
      b.size <- b.size - split_off;
      let rem =
        Block.v ~addr:(Block.end_addr b) ~size:split_off ~status:Block.Free
          ~run_id:b.run_id
      in
      register t ~after:b rem;
      insert_free t rem;
      Metrics.on_split t.metrics ~addr:b.addr ~parent ~taken:b.size ~remainder:split_off;
      Metrics.add_ops t.metrics 1
    end
  end

(* --- coalescing (category D) ----------------------------------------------- *)

let within_coalesce_bound t size =
  match t.params.max_coalesced_size with None -> true | Some m -> size <= m

(* [b], a physical neighbour of [a], is free, in [a]'s run and small
   enough to merge with it. Same-run neighbours tile the run, so a run-id
   match implies address contiguity. *)
let mergeable t (a : Block.t) (b : Block.t) =
  b != Block.none && Block.is_free b && b.run_id = a.run_id
  && within_coalesce_bound t (a.size + b.size)

(* Forward: [b] absorbs its successors. *)
let rec absorb_next t (b : Block.t) =
  let next = b.phys_next in
  if mergeable t b next then begin
    remove_free t next;
    let absorbed = next.size in
    unregister t next;
    b.size <- b.size + absorbed;
    Metrics.on_coalesce t.metrics ~addr:b.addr ~merged:b.size ~absorbed;
    Metrics.add_ops t.metrics 2;
    absorb_next t b
  end

(* Backward: [b] is absorbed by its predecessors; returns the survivor. *)
let rec absorb_into_prev t (b : Block.t) =
  let prev = b.phys_prev in
  if mergeable t b prev then begin
    remove_free t prev;
    (* One re-registration step, as when the registries were rebuilt. *)
    Metrics.add_ops t.metrics 1;
    unregister t b;
    let absorbed = b.size in
    prev.size <- prev.size + absorbed;
    Metrics.on_coalesce t.metrics ~addr:prev.addr ~merged:prev.size ~absorbed;
    Metrics.add_ops t.metrics 2;
    absorb_into_prev t prev
  end
  else b

(* Merge [b] (free, not in any free structure) with free neighbours in the
   same run. Returns the surviving block, also not in any free structure. *)
let merge_neighbours t b =
  absorb_next t b;
  absorb_into_prev t b

(* Deferred coalescing sweep: walk the address-ordered physical chain from
   [a] and merge every adjacent same-run pair of free blocks, lowest
   address first, keeping the survivor in its pool. *)
let rec sweep_from t (a : Block.t) =
  if a != Block.none then begin
    let b = a.phys_next in
    if Block.is_free a && mergeable t a b && Block.end_addr a = b.addr then begin
      remove_free t a;
      remove_free t b;
      unregister t b;
      a.size <- a.size + b.size;
      insert_free t a;
      Metrics.on_coalesce t.metrics ~addr:a.addr ~merged:a.size ~absorbed:b.size;
      sweep_from t a
    end
    else sweep_from t b
  end

let free_count t =
  match t.pools with
  | P_single fs -> Free_structure.cardinal fs
  | P_by_size tbl -> Hashtbl.fold (fun _ fs n -> n + Free_structure.cardinal fs) tbl 0
  | P_by_range arr -> Array.fold_left (fun n fs -> n + Free_structure.cardinal fs) 0 arr

(* Charged one step per free block: the sweep visits the free blocks in
   address order. *)
let sweep t =
  Metrics.add_ops t.metrics (free_count t);
  sweep_from t t.phys_first

(* --- system memory ---------------------------------------------------------- *)

let note_new_run t base size =
  let run_id =
    if base = t.last_run_end then t.last_run_id
    else begin
      t.last_run_id <- t.last_run_id + 1;
      t.last_run_id
    end
  in
  t.last_run_end <- base + size;
  t.held_bytes <- t.held_bytes + size;
  if t.held_bytes > t.max_held_bytes then t.max_held_bytes <- t.held_bytes;
  run_id

(* Obtain a block of [gross] bytes from the system, growing the heap. *)
let grab_from_system t gross =
  Metrics.add_ops t.metrics 4 (* system-call cost *);
  let fixed = Array.length t.classes > 0 in
  let oversize = fixed && class_ceiling t gross < 0 in
  if fixed && not oversize then begin
    (* Slab carve: request a chunk and cut it into gross-size blocks. *)
    let per_chunk = Int.max 1 (t.params.chunk_request / gross) in
    let request = per_chunk * gross in
    let base = Address_space.sbrk t.space request in
    let run_id = note_new_run t base request in
    let first = Block.v ~addr:base ~size:gross ~status:Block.Used ~run_id in
    register t ~after:t.phys_last first;
    for i = 1 to per_chunk - 1 do
      let b =
        Block.v ~addr:(base + (i * gross)) ~size:gross ~status:Block.Free ~run_id
      in
      register t ~after:t.phys_last b;
      insert_free t b
    done;
    first
  end
  else begin
    let greedy =
      (not fixed) && can_split t.vec
      && t.vec.Decision_vector.e1 = Not_fixed
      && gross < t.params.chunk_request
    in
    let request = if greedy then t.params.chunk_request else gross in
    let base = Address_space.sbrk t.space request in
    let run_id = note_new_run t base request in
    let b = Block.v ~addr:base ~size:request ~status:Block.Used ~run_id in
    register t ~after:t.phys_last b;
    try_split t b gross;
    b
  end

(* Return the trailing free block to the system when the policy says so.
   [b] must not be in any free structure. Returns true when trimmed away. *)
let maybe_trim t (b : Block.t) =
  if
    t.params.return_to_system
    && Block.end_addr b = Address_space.brk t.space
    && b.size >= t.params.trim_threshold
  then begin
    unregister t b;
    Address_space.trim t.space b.addr;
    t.held_bytes <- t.held_bytes - b.size;
    if b.run_id = t.last_run_id then t.last_run_end <- b.addr
    else begin
      (* An older run surfaced at the top of the heap (later runs were
         trimmed by us or by other managers); future growth can rejoin it. *)
      t.last_run_id <- b.run_id;
      t.last_run_end <- b.addr
    end;
    Metrics.add_ops t.metrics 2;
    true
  end
  else false

(* --- fit search --------------------------------------------------------------- *)

(* One pool's fit search, charged its traversal steps plus one. *)
let take_from t fs gross =
  let before = Free_structure.steps fs in
  let b = Free_structure.take fs t.vec.Decision_vector.c1 gross in
  Metrics.add_ops t.metrics (Free_structure.steps fs - before + 1);
  b

(* Search the block's own class, then larger classes (binmap search). *)
let rec take_from_range t (arr : Free_structure.t array) (gross : int) (i : int) =
  if i >= Array.length arr then Block.none
  else begin
    Metrics.add_ops t.metrics (pool_lookup_cost t i);
    let b = take_from t arr.(i) gross in
    if b != Block.none then b else take_from_range t arr gross (i + 1)
  end

(* A free block of at least [gross] bytes, out of its pool, or [Block.none]. *)
let take_candidate t gross =
  match t.pools with
  | P_single fs -> take_from t fs gross
  | P_by_size tbl -> (
    Metrics.add_ops t.metrics (pool_lookup_cost t 1);
    match Hashtbl.find tbl gross with
    | fs -> take_from t fs gross
    | exception Not_found -> Block.none)
  | P_by_range arr -> take_from_range t arr gross (range_index t gross)

(* --- public operations --------------------------------------------------------- *)

let alloc t payload =
  if payload <= 0 then invalid_arg "Manager.alloc: non-positive size";
  let gross = gross_of_request t payload in
  let b = take_candidate t gross in
  let b =
    if b == Block.none && t.vec.Decision_vector.d2 = Deferred then begin
      (* Coalesce on demand, then retry once before growing the heap. *)
      sweep t;
      take_candidate t gross
    end
    else b
  in
  let block =
    if b == Block.none then grab_from_system t gross
    else begin
      b.status <- Block.Used;
      try_split t b gross;
      b
    end
  in
  block.Block.req_size <- payload;
  Metrics.on_alloc t.metrics ~payload ~gross:block.Block.size ~tag:t.tag_bytes
    ~addr:(block.Block.addr + t.header_bytes);
  block.Block.addr + t.header_bytes

let free t user_addr =
  let base = user_addr - t.header_bytes in
  let miss = Int_table.dummy t.by_base in
  let b = Int_table.find t.by_base base ~default:miss in
  if b == miss || Block.is_free b then raise (Allocator.Invalid_free user_addr)
  else begin
    let payload = b.Block.req_size in
    b.Block.req_size <- 0;
    Metrics.on_free t.metrics ~payload ~addr:user_addr;
    b.status <- Block.Free;
    let b =
      if can_coalesce t.vec && t.vec.Decision_vector.d2 = Always then
        merge_neighbours t b
      else b
    in
    if not (maybe_trim t b) then insert_free t b;
    if can_coalesce t.vec && t.vec.Decision_vector.d2 = Deferred then begin
      t.frees_since_sweep <- t.frees_since_sweep + 1;
      if t.frees_since_sweep >= t.params.deferred_interval then begin
        t.frees_since_sweep <- 0;
        sweep t
      end
    end
  end

let owns t user_addr =
  let miss = Int_table.dummy t.by_base in
  let b = Int_table.find t.by_base (user_addr - t.header_bytes) ~default:miss in
  b != miss && not (Block.is_free b)

let free_blocks t =
  Int_table.fold
    (fun _ (b : Block.t) acc -> if Block.is_free b then (b.addr, b.size) :: acc else acc)
    t.by_base []
  |> List.sort compare

let free_bytes t =
  match t.pools with
  | P_single fs -> Free_structure.total_bytes fs
  | P_by_size tbl -> Hashtbl.fold (fun _ fs acc -> acc + Free_structure.total_bytes fs) tbl 0
  | P_by_range arr ->
    Array.fold_left (fun acc fs -> acc + Free_structure.total_bytes fs) 0 arr

(* Where the held bytes currently go (Section 4.1 factors). *)
let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and tag_overhead = ref 0 in
  let internal_padding = ref 0 and free = ref 0 in
  Int_table.iter
    (fun _ (b : Block.t) ->
      match b.status with
      | Block.Free -> free := !free + b.size
      | Block.Used ->
        live_payload := !live_payload + b.req_size;
        tag_overhead := !tag_overhead + t.tag_bytes;
        internal_padding := !internal_padding + (b.size - t.tag_bytes - b.req_size))
    t.by_base;
  {
    Metrics.live_payload = !live_payload;
    tag_overhead = !tag_overhead;
    internal_padding = !internal_padding;
    free_bytes = !free;
    total_held = t.held_bytes;
  }

(* --- introspection (shape linting) ------------------------------------------------ *)

type size_expectation =
  | Any_size
  | Exactly of int
  | Within of { above : int; up_to : int option }

type pool_view = {
  pool_label : string;
  expect : size_expectation;
  fs : Free_structure.t;
}

(* Expected gross-size interval of range-pool slot [i]: class ceilings when
   the regime is fixed, synthetic power-of-two buckets otherwise (mirrors
   [range_index]). *)
let range_expectation t n i =
  if Array.length t.classes > 0 then
    if i >= Array.length t.classes then
      Within { above = t.classes.(Array.length t.classes - 1); up_to = None }
    else
      Within
        {
          above = (if i = 0 then 0 else t.classes.(i - 1));
          up_to = Some t.classes.(i);
        }
  else if i >= n - 1 then Within { above = 1 lsl (n - 2); up_to = None }
  else Within { above = (if i = 0 then 0 else 1 lsl (i - 1)); up_to = Some (1 lsl i) }

let pool_views t =
  match t.pools with
  | P_single fs -> [ { pool_label = "single pool"; expect = Any_size; fs } ]
  | P_by_size tbl ->
    Hashtbl.fold (fun z fs acc -> (z, fs) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> List.map (fun (z, fs) ->
           { pool_label = Printf.sprintf "size-%d pool" z; expect = Exactly z; fs })
  | P_by_range arr ->
    let n = Array.length arr in
    Array.to_list
      (Array.mapi
         (fun i fs ->
           {
             pool_label = Printf.sprintf "range pool %d" i;
             expect = range_expectation t n i;
             fs;
           })
         arr)

(* --- invariants ------------------------------------------------------------------ *)

let check_invariants t =
  let ( let* ) r f = Result.bind r f in
  let blocks = Int_table.fold (fun _ b acc -> b :: acc) t.by_base [] in
  let sorted = List.sort (fun (a : Block.t) b -> compare a.addr b.Block.addr) blocks in
  let* () =
    let rec overlap = function
      | [] | [ _ ] -> Ok ()
      | (a : Block.t) :: (b : Block.t) :: rest ->
        if Block.end_addr a > b.addr then
          Error
            (Format.asprintf "blocks overlap: %a and %a" Block.pp a Block.pp b)
        else overlap (b :: rest)
    in
    overlap sorted
  in
  let* () =
    (* The physical chain must mirror the address-sorted registry. *)
    let rec chain (prev : Block.t) = function
      | [] ->
        if prev != Block.none && prev.Block.phys_next != Block.none then
          Error (Format.asprintf "dangling phys_next after %a" Block.pp prev)
        else if t.phys_last != prev then Error "phys_last out of sync with the registry"
        else Ok ()
      | (b : Block.t) :: rest ->
        if b.Block.phys_prev != prev then
          Error (Format.asprintf "phys chain break before %a" Block.pp b)
        else if prev != Block.none && prev.Block.phys_next != b then
          Error (Format.asprintf "phys chain break after %a" Block.pp prev)
        else chain b rest
    in
    let head = match sorted with [] -> Block.none | b :: _ -> b in
    if t.phys_first != head then Error "phys_first out of sync with the registry"
    else chain Block.none sorted
  in
  let in_pool (b : Block.t) =
    match t.pools with
    | P_single fs -> Free_structure.mem fs b
    | P_by_size tbl -> (
      match Hashtbl.find_opt tbl b.size with
      | Some fs -> Free_structure.mem fs b
      | None -> false)
    | P_by_range arr -> Free_structure.mem arr.(range_index t b.size) b
  in
  let* () =
    List.fold_left
      (fun acc (b : Block.t) ->
        let* () = acc in
        match b.status with
        | Block.Free ->
          if in_pool b then Ok ()
          else Error (Format.asprintf "free block not in its pool: %a" Block.pp b)
        | Block.Used ->
          if b.req_size > 0 then Ok ()
          else Error (Format.asprintf "used block without request record: %a" Block.pp b))
      (Ok ()) sorted
  in
  let gross_total = List.fold_left (fun acc (b : Block.t) -> acc + b.size) 0 sorted in
  if gross_total <> t.held_bytes then
    Error
      (Format.asprintf "held bytes %d <> sum of block sizes %d" t.held_bytes gross_total)
  else Ok ()

let allocator t =
  {
    Allocator.name = "custom";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> current_footprint t);
    max_footprint = (fun () -> t.max_held_bytes);
    stats = (fun () -> metrics t);
    breakdown = (fun () -> breakdown t);
  }
