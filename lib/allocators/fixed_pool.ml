module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

(* Kenwright's fixed-size pool (arXiv 2210.16471), segregated by power-of-two
   class: every operation is loop-free index arithmetic over the flat arena.

   Layout per class:

     free block:  [ next addr : i32 ] ........ (rest of the class unused)
     live block:  [ payload  : i32 ] ........ (the simulated payload)

   The singly linked free list is threaded *through the blocks themselves*
   (the 32-bit next link is the only per-block state, and it occupies space
   the block owns anyway), so a free list pop or push touches exactly one
   arena word. Slabs are carved lazily with a per-class bump region instead
   of an initialisation loop — Kenwright's "uninitialised watermark".

   A side byte table keyed by [addr / min_class] records the class of every
   live block (0 = not a live block start), giving O(1) wild/double-free
   detection without any in-band header on live blocks. *)

type config = { min_class : int; max_class : int; chunk_bytes : int }

let default_config = { min_class = 16; max_class = 1 lsl 22; chunk_bytes = 4096 }

type t = {
  config : config;
  space : Address_space.t;
  heads : int array; (* class idx -> head of the in-band free list | -1 *)
  bump_addr : int array; (* class idx -> next uncarved address in the slab *)
  bump_end : int array; (* class idx -> end of the current slab *)
  mutable meta : Bytes.t; (* addr/min_class -> class idx + 1, 0 = not live *)
  metrics : Metrics.t;
  shift : int; (* log2 min_class *)
  mutable live_gross : int;
}

let n_classes config =
  Size.log2_ceil config.max_class - Size.log2_ceil config.min_class + 1

let create ?(config = default_config) space =
  if not (Size.is_power_of_two config.min_class) then
    invalid_arg "Fixed_pool.create: min_class must be a power of two";
  if not (Size.is_power_of_two config.max_class) then
    invalid_arg "Fixed_pool.create: max_class must be a power of two";
  if config.min_class < 8 || config.max_class < config.min_class || config.chunk_bytes <= 0
  then invalid_arg "Fixed_pool.create: bad config";
  let n = n_classes config in
  {
    config;
    space;
    heads = Array.make n (-1);
    bump_addr = Array.make n 0;
    bump_end = Array.make n 0;
    meta = Bytes.empty;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
    shift = Size.log2_ceil config.min_class;
    live_gross = 0;
  }

let class_of_request t payload =
  let cls = Int.max t.config.min_class (Size.pow2_ceil payload) in
  if cls > t.config.max_class then
    invalid_arg
      (Printf.sprintf "Fixed_pool.alloc: request of %d bytes exceeds max class %d"
         payload t.config.max_class);
  cls

let class_index t cls = Size.log2_ceil cls - t.shift

let meta_reserve t brk =
  let need = (brk lsr t.shift) + 1 in
  if Bytes.length t.meta < need then begin
    let cap = ref (max 1024 (Bytes.length t.meta)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let grown = Bytes.make !cap '\000' in
    Bytes.blit t.meta 0 grown 0 (Bytes.length t.meta);
    t.meta <- grown
  end

(* Acquire a fresh slab for class [ci] and hand out its first block; the
   rest stays behind the bump watermark — no carving loop. *)
let grow_class t ci cls =
  let request = Int.max cls (t.config.chunk_bytes / cls * cls) in
  let base = Address_space.sbrk t.space request in
  meta_reserve t (base + request);
  Metrics.add_ops t.metrics 4;
  t.bump_addr.(ci) <- base + cls;
  t.bump_end.(ci) <- base + request;
  base

let alloc t payload =
  if payload <= 0 then invalid_arg "Fixed_pool.alloc: non-positive size";
  let cls = class_of_request t payload in
  let ci = class_index t cls in
  Metrics.add_ops t.metrics 1;
  let addr =
    let head = t.heads.(ci) in
    if head >= 0 then begin
      (* O(1) pop: the freed block's first word is the next link. *)
      t.heads.(ci) <- Address_space.arena_get32 t.space head;
      head
    end
    else if t.bump_addr.(ci) < t.bump_end.(ci) then begin
      let a = t.bump_addr.(ci) in
      t.bump_addr.(ci) <- a + cls;
      a
    end
    else grow_class t ci cls
  in
  Address_space.arena_set32 t.space addr payload;
  Bytes.unsafe_set t.meta (addr lsr t.shift) (Char.unsafe_chr (ci + 1));
  t.live_gross <- t.live_gross + cls;
  Metrics.on_alloc t.metrics ~payload ~gross:cls ~tag:0 ~addr;
  addr

let free t addr =
  let idx = addr lsr t.shift in
  if
    addr < 0
    || addr land (t.config.min_class - 1) <> 0
    || idx >= Bytes.length t.meta
    || Bytes.unsafe_get t.meta idx = '\000'
  then raise (Allocator.Invalid_free addr);
  let ci = Char.code (Bytes.unsafe_get t.meta idx) - 1 in
  let cls = t.config.min_class lsl ci in
  let payload = Address_space.arena_get32 t.space addr in
  Bytes.unsafe_set t.meta idx '\000';
  (* O(1) push: overwrite the dead payload word with the next link. *)
  Address_space.arena_set32 t.space addr t.heads.(ci);
  t.heads.(ci) <- addr;
  t.live_gross <- t.live_gross - cls;
  Metrics.add_ops t.metrics 1;
  Metrics.on_free t.metrics ~payload ~addr

let current_footprint t = Address_space.brk t.space
let max_footprint t = Address_space.high_water t.space
let metrics t = Metrics.snapshot t.metrics

let breakdown t : Metrics.breakdown =
  let live_payload = Metrics.live_payload t.metrics and held = current_footprint t in
  {
    Metrics.live_payload;
    tag_overhead = 0;
    internal_padding = t.live_gross - live_payload;
    free_bytes = held - t.live_gross;
    total_held = held;
  }

let allocator t =
  {
    Allocator.name = "fixed-pool";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> current_footprint t);
    max_footprint = (fun () -> max_footprint t);
    stats = (fun () -> metrics t);
    breakdown = (fun () -> breakdown t);
  }
