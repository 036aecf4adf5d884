module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Int_table = Dmm_util.Int_table
module Int_int_table = Dmm_util.Int_int_table
module Int_stack = Dmm_util.Int_stack
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

type config = { min_slot : int; chunk_bytes : int }

let default_config = { min_slot = 16; chunk_bytes = 4096 }

type region = {
  id : int; (* its index in [regions] *)
  slot : int;
  free_slots : Int_stack.t;
  chunks : Int_stack.t; (* chunk bases, oldest at the bottom; all of [chunk_size] *)
  chunk_size : int;
  live : Int_int_table.t; (* live slot addr -> requested payload; 0 = none *)
}

(* Park in the empty cells of [by_class], [regions] and [chunk_cache];
   never allocated from or pushed to. *)
let no_stack = Int_stack.create ()

let no_region =
  {
    id = -1;
    slot = 0;
    free_slots = no_stack;
    chunks = no_stack;
    chunk_size = 0;
    live = Int_int_table.create ();
  }

(* [owner] maps a live slot to its region's id, an int, so that a store
   into it is a plain store; the id indexes [regions], which holds every
   region made, so a region record lives as long as its manager. *)
type t = {
  config : config;
  space : Address_space.t;
  by_class : region array; (* log2 of the slot size -> its region, or [no_region] *)
  mutable regions : region array; (* id -> region; [no_region] past [n_regions] *)
  mutable n_regions : int;
  owner : Int_int_table.t; (* live slot addr -> its region's id *)
  chunk_cache : Int_stack.t Int_table.t; (* chunk size -> free bases *)
  metrics : Metrics.t;
}

let create ?(config = default_config) space =
  if not (Size.is_power_of_two config.min_slot) || config.chunk_bytes <= 0 then
    invalid_arg "Region.create: bad config";
  {
    config;
    space;
    by_class = Array.make 62 no_region;
    regions = Array.make 16 no_region;
    n_regions = 0;
    owner = Int_int_table.create ~size:256 ();
    chunk_cache = Int_table.create ~size:8 no_stack;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
  }

let slot_of_request t payload = Int.max t.config.min_slot (Size.pow2_ceil payload)

let chunk_size_for t slot = Int.max t.config.chunk_bytes (Size.align_up slot t.config.chunk_bytes)

let make_region_internal t slot =
  let id = t.n_regions in
  if id = Array.length t.regions then begin
    let grown = Array.make (2 * id) no_region in
    Array.blit t.regions 0 grown 0 id;
    t.regions <- grown
  end;
  let r =
    {
      id;
      slot;
      free_slots = Int_stack.create ();
      chunks = Int_stack.create ();
      chunk_size = chunk_size_for t slot;
      live = Int_int_table.create ~size:64 ();
    }
  in
  t.regions.(id) <- r;
  t.n_regions <- id + 1;
  r

let make_region t ~slot_size =
  if slot_size <= 0 then invalid_arg "Region.make_region: non-positive slot size";
  make_region_internal t (slot_of_request t slot_size)

let take_chunk t size =
  let cached = Int_table.find t.chunk_cache size ~default:no_stack in
  if Int_stack.is_empty cached then begin
    let base = Address_space.sbrk t.space size in
    Metrics.add_ops t.metrics 4;
    base
  end
  else begin
    Metrics.add_ops t.metrics 1;
    Int_stack.pop cached
  end

(* A fresh chunk serves its first slot and stacks the rest so that they
   pop in address order. *)
let region_alloc_payload t r payload =
  Metrics.add_ops t.metrics 2;
  let addr =
    if not (Int_stack.is_empty r.free_slots) then Int_stack.pop r.free_slots
    else begin
      let base = take_chunk t r.chunk_size in
      Int_stack.push r.chunks base;
      let count = r.chunk_size / r.slot in
      for i = count - 1 downto 1 do
        Int_stack.push r.free_slots (base + (i * r.slot))
      done;
      base
    end
  in
  Int_int_table.replace r.live addr payload;
  Int_int_table.replace t.owner addr r.id;
  Metrics.on_alloc t.metrics ~payload ~gross:r.slot ~tag:0 ~addr;
  addr

let region_free_internal t r addr =
  let payload = Int_int_table.take r.live addr ~default:0 in
  if payload = 0 then raise (Allocator.Invalid_free addr);
  Int_int_table.remove t.owner addr;
  Int_stack.push r.free_slots addr;
  Metrics.add_ops t.metrics 2;
  Metrics.on_free t.metrics ~payload ~addr

(* The live slots are released in address order; the chunks go to the
   cache newest first, so the oldest is reused first. *)
let destroy_region t r =
  let addrs = List.sort compare (Int_int_table.fold (fun addr _ acc -> addr :: acc) r.live []) in
  List.iter
    (fun addr ->
      let payload = Int_int_table.take r.live addr ~default:0 in
      Int_int_table.remove t.owner addr;
      Metrics.on_free t.metrics ~payload ~addr)
    addrs;
  Int_stack.clear r.free_slots;
  let cache =
    let l = Int_table.find t.chunk_cache r.chunk_size ~default:no_stack in
    if l != no_stack then l
    else begin
      let l = Int_stack.create () in
      Int_table.replace t.chunk_cache r.chunk_size l;
      l
    end
  in
  Metrics.add_ops t.metrics (Int_stack.length r.chunks);
  while not (Int_stack.is_empty r.chunks) do
    Int_stack.push cache (Int_stack.pop r.chunks)
  done

let class_region t slot =
  let i = Size.bit_length slot - 1 in
  let r = t.by_class.(i) in
  if r != no_region then r
  else begin
    let r = make_region_internal t slot in
    t.by_class.(i) <- r;
    r
  end

let alloc t payload =
  if payload <= 0 then invalid_arg "Region.alloc: non-positive size";
  let slot = slot_of_request t payload in
  region_alloc_payload t (class_region t slot) payload

let free t addr =
  let id = Int_int_table.find t.owner addr ~default:(-1) in
  if id < 0 then raise (Allocator.Invalid_free addr);
  region_free_internal t t.regions.(id) addr

let current_footprint t = Address_space.brk t.space
let max_footprint t = Address_space.high_water t.space
let metrics t = Metrics.snapshot t.metrics

let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and padding = ref 0 and live_gross = ref 0 in
  Int_int_table.iter
    (fun addr id ->
      let r = t.regions.(id) in
      let payload = Int_int_table.find r.live addr ~default:0 in
      live_payload := !live_payload + payload;
      padding := !padding + (r.slot - payload);
      live_gross := !live_gross + r.slot)
    t.owner;
  {
    Metrics.live_payload = !live_payload;
    tag_overhead = 0;
    internal_padding = !padding;
    free_bytes = current_footprint t - !live_gross;
    total_held = current_footprint t;
  }

(* The explicit-region API reuses the internals; the requested payload of a
   region slot is the slot itself (region clients size their slots). *)
let region_alloc t r = region_alloc_payload t r r.slot

let region_free t r addr = region_free_internal t r addr

let allocator t =
  {
    Allocator.name = "regions";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> current_footprint t);
    max_footprint = (fun () -> max_footprint t);
    stats = (fun () -> metrics t);
    breakdown = (fun () -> breakdown t);
  }
