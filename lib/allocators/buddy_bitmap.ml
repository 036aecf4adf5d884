module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

(* MintOS-style binary buddy system (SNIPPETS.md §1–2): the heap is one
   power-of-two arena based at address 0, managed with one occupancy bitmap
   per level plus a per-block level byte.

     level 0:  blocks of min_block bytes          bit i  <->  [i*min,  +min)
     level l:  blocks of min_block * 2^l bytes    bit i  <->  [i*min*2^l, ...)

   A set bit means "this block is free at this level". Allocation finds the
   first set bit at the request's level (scanning upward), then splits the
   block down, re-flagging the upper halves; freeing re-sets the bit and
   greedily merges with the buddy (addr XOR size) as long as it is free.
   Because the base is 0 and the capacity a power of two, buddy arithmetic
   stays valid across capacity doublings — each doubling simply appends a
   free block of the old capacity at its level.

   Like MintOS's [exist_bit_count], each level keeps the number of its set
   bits, so the upward scan passes an empty level without reading its
   bitmap. Each level also keeps a hint: a lower bound on its first set
   bit, where the bit search starts. The search then skips whole zero
   64-bit words, so its cost follows the words it skips, not the arena.

   The per-min-block level byte (0xFF = not an allocated block base) is the
   MintOS allocated-block index: O(1) size recovery and wild/double-free
   detection on free. The requested payload is stored in-band in the arena
   at the block base, as a signed 32-bit word. *)

type config = { min_block : int }

let default_config = { min_block = 32 }

type t = {
  config : config;
  space : Address_space.t;
  mutable cap : int; (* power-of-two arena size (0 before first use) *)
  mutable n_levels : int; (* log2 (cap / min_block) + 1 *)
  mutable bitmaps : Bytes.t array; (* level -> occupancy bitmap, 1 = free *)
  mutable free_count : int array; (* level -> number of set bits *)
  mutable hint : int array; (* level -> lower bound on the first set bit *)
  mutable level_bytes : Bytes.t; (* addr/min_block -> level | 0xFF *)
  metrics : Metrics.t;
  shift : int; (* log2 min_block *)
  mutable live_gross : int;
  mutable words_read : int; (* bitmap words the searches read; not in ops *)
}

(* The largest payload the in-band signed 32-bit word holds. *)
let max_payload = 0x7FFF_FFFF

let create ?(config = default_config) space =
  if not (Size.is_power_of_two config.min_block) then
    invalid_arg "Buddy_bitmap.create: min_block must be a power of two";
  if config.min_block < 8 then invalid_arg "Buddy_bitmap.create: min_block too small";
  {
    config;
    space;
    cap = 0;
    n_levels = 0;
    bitmaps = [||];
    free_count = [||];
    hint = [||];
    level_bytes = Bytes.empty;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
    shift = Size.log2_ceil config.min_block;
    live_gross = 0;
    words_read = 0;
  }

let bit_get bm i = Char.code (Bytes.unsafe_get bm (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Every set is of a clear bit and every clear of a set bit, so the count
   stays exact. Setting lowers the hint; clearing leaves it a lower bound. *)
let mark_free t l i =
  let bm = t.bitmaps.(l) in
  let j = i lsr 3 in
  Bytes.unsafe_set bm j (Char.unsafe_chr (Char.code (Bytes.unsafe_get bm j) lor (1 lsl (i land 7))));
  t.free_count.(l) <- t.free_count.(l) + 1;
  if i < t.hint.(l) then t.hint.(l) <- i

let mark_used t l i =
  let bm = t.bitmaps.(l) in
  let j = i lsr 3 in
  Bytes.unsafe_set bm j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bm j) land lnot (1 lsl (i land 7)) land 0xff));
  t.free_count.(l) <- t.free_count.(l) - 1

(* Bitmaps are whole 64-bit words; the bits past a level's block count stay
   clear. *)
let bitmap_for t l = Bytes.make (8 * ((max 1 (t.cap asr (t.shift + l)) + 63) / 64)) '\000'

(* Index of the lowest set bit of a non-zero [v], by halving. *)
let ctz v =
  let v = ref v and n = ref 0 in
  if !v land 0xFFFF_FFFF = 0 then begin v := !v lsr 32; n := 32 end;
  if !v land 0xFFFF = 0 then begin v := !v lsr 16; n := !n + 16 end;
  if !v land 0xFF = 0 then begin v := !v lsr 8; n := !n + 8 end;
  if !v land 0xF = 0 then begin v := !v lsr 4; n := !n + 4 end;
  if !v land 0x3 = 0 then begin v := !v lsr 2; n := !n + 2 end;
  if !v land 1 = 0 then !n + 1 else !n

(* Lowest set bit of word [w] of [bm] at bit [from] (0..63) or above, or -1. *)
let low_bit bm w from =
  let x = Int64.logand (Bytes.get_int64_le bm (w lsl 3)) (Int64.shift_left (-1L) from) in
  if Int64.equal x 0L then -1
  else
    (* [Int64.to_int] keeps the low 63 bits: zero means only bit 63 is set. *)
    let v = Int64.to_int x in
    (w lsl 6) + if v = 0 then 63 else ctz v

let rec nonzero_word bm w =
  if Int64.equal (Bytes.get_int64_le bm (w lsl 3)) 0L then nonzero_word bm (w + 1) else w

(* First set bit at level [l], which must hold one: search from the hint,
   skipping zero words, then move the hint up to the bit found. The words
   from the hint's to the found bit's are the words read. *)
let first_free t l =
  let bm = t.bitmaps.(l) and h = t.hint.(l) in
  let i = low_bit bm (h lsr 6) (h land 63) in
  let i = if i >= 0 then i else low_bit bm (nonzero_word bm ((h lsr 6) + 1)) 0 in
  t.hint.(l) <- i;
  t.words_read <- t.words_read + (i lsr 6) - (h lsr 6) + 1;
  i

(* First use: one sbrk covering the request, the whole arena a single free
   block at the top level. *)
let init_arena t needed =
  let request = Int.max 4096 (Size.pow2_ceil needed) in
  let (_ : int) = Address_space.sbrk t.space request in
  Metrics.add_ops t.metrics 4;
  t.cap <- request;
  t.n_levels <- Size.log2_ceil (request asr t.shift) + 1;
  t.bitmaps <- Array.init t.n_levels (bitmap_for t);
  t.free_count <- Array.make t.n_levels 0;
  t.hint <- Array.make t.n_levels 0;
  t.level_bytes <- Bytes.make (t.cap asr t.shift) '\255';
  mark_free t (t.n_levels - 1) 0

(* Double the arena: every bitmap doubles its bit count (base 0 keeps every
   existing index valid), a fresh top level appears, and the new upper half
   becomes one free block of the old capacity at the old top level. *)
let grow_once t =
  let old_cap = t.cap in
  let (_ : int) = Address_space.sbrk t.space old_cap in
  Metrics.add_ops t.metrics 4;
  t.cap <- 2 * old_cap;
  let n = t.n_levels + 1 in
  t.bitmaps <-
    Array.init n (fun l ->
        let bm = bitmap_for t l in
        if l < t.n_levels then Bytes.blit t.bitmaps.(l) 0 bm 0 (Bytes.length t.bitmaps.(l));
        bm);
  t.free_count <- Array.append t.free_count [| 0 |];
  t.hint <- Array.append t.hint [| 0 |];
  t.n_levels <- n;
  let lb = Bytes.make (t.cap asr t.shift) '\255' in
  Bytes.blit t.level_bytes 0 lb 0 (Bytes.length t.level_bytes);
  t.level_bytes <- lb;
  mark_free t (t.n_levels - 2) 1

(* Lowest level at or above [lt] holding a free block, or -1. It charges
   one step per level probed and one more on a miss; an empty level is
   passed by its count, without reading its bitmap. *)
let scan t lt =
  let l = ref lt in
  while !l < t.n_levels && t.free_count.(!l) = 0 do
    incr l
  done;
  Metrics.add_ops t.metrics (!l - lt + 1);
  if !l < t.n_levels then !l else -1

let alloc t payload =
  if payload <= 0 then invalid_arg "Buddy_bitmap.alloc: non-positive size";
  if payload > max_payload then
    invalid_arg
      (Printf.sprintf "Buddy_bitmap.alloc: request of %d bytes exceeds the 32-bit payload word"
         payload);
  let needed = Int.max t.config.min_block (Size.pow2_ceil payload) in
  let lt = Size.log2_ceil needed - t.shift in
  if t.cap = 0 then init_arena t needed;
  let l = ref (scan t lt) in
  while !l < 0 do
    grow_once t;
    l := scan t lt
  done;
  let i = first_free t !l in
  mark_used t !l i;
  let addr = i lsl (t.shift + !l) in
  (* Split down to the target level, re-flagging each upper half. *)
  while !l > lt do
    let parent = t.config.min_block lsl !l in
    let half = parent lsr 1 in
    decr l;
    mark_free t !l ((addr + half) asr (t.shift + !l));
    Metrics.add_ops t.metrics 1;
    Metrics.on_split t.metrics ~addr ~parent ~taken:half ~remainder:half
  done;
  Bytes.unsafe_set t.level_bytes (addr asr t.shift) (Char.unsafe_chr lt);
  Address_space.arena_set32 t.space addr payload;
  t.live_gross <- t.live_gross + needed;
  Metrics.on_alloc t.metrics ~payload ~gross:needed ~tag:0 ~addr;
  addr

let free t addr =
  let idx = addr asr t.shift in
  if
    addr < 0
    || addr land (t.config.min_block - 1) <> 0
    || idx >= Bytes.length t.level_bytes
    || Bytes.unsafe_get t.level_bytes idx = '\255'
  then raise (Allocator.Invalid_free addr);
  let lt = Char.code (Bytes.unsafe_get t.level_bytes idx) in
  Bytes.unsafe_set t.level_bytes idx '\255';
  let payload = Address_space.arena_get32 t.space addr in
  t.live_gross <- t.live_gross - (t.config.min_block lsl lt);
  Metrics.add_ops t.metrics 1;
  Metrics.on_free t.metrics ~payload ~addr;
  (* Greedy buddy merging: the buddy of [a] at level [l] is a XOR size. *)
  let a = ref addr and l = ref lt in
  let continue_ = ref true in
  while !continue_ && !l < t.n_levels - 1 do
    let sz = t.config.min_block lsl !l in
    let buddy = !a lxor sz in
    if buddy < t.cap && bit_get t.bitmaps.(!l) (buddy asr (t.shift + !l)) then begin
      mark_used t !l (buddy asr (t.shift + !l));
      a := Int.min !a buddy;
      incr l;
      Metrics.add_ops t.metrics 1;
      Metrics.on_coalesce t.metrics ~addr:!a ~merged:(2 * sz) ~absorbed:sz
    end
    else continue_ := false
  done;
  mark_free t !l (!a asr (t.shift + !l))

let words_read t = t.words_read
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
    Allocator.name = "buddy-bitmap";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> current_footprint t);
    max_footprint = (fun () -> max_footprint t);
    stats = (fun () -> metrics t);
    breakdown = (fun () -> breakdown t);
  }
