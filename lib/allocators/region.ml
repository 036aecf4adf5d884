module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

type config = { min_slot : int; chunk_bytes : int }

let default_config = { min_slot = 16; chunk_bytes = 4096 }

type region = {
  slot : int;
  mutable free_slots : int list;
  mutable chunks : int list; (* chunk base addresses; all of [chunk_size] *)
  chunk_size : int;
  live : (int, int) Hashtbl.t; (* live slot addr -> requested payload *)
}

type t = {
  config : config;
  space : Address_space.t;
  by_class : (int, region) Hashtbl.t;
  owner : (int, region) Hashtbl.t; (* live slot addr -> its region *)
  chunk_cache : (int, int list ref) Hashtbl.t; (* chunk size -> free bases *)
  metrics : Metrics.t;
}

let create ?(config = default_config) space =
  if not (Size.is_power_of_two config.min_slot) || config.chunk_bytes <= 0 then
    invalid_arg "Region.create: bad config";
  {
    config;
    space;
    by_class = Hashtbl.create 32;
    owner = Hashtbl.create 256;
    chunk_cache = Hashtbl.create 8;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
  }

let slot_of_request t payload = max t.config.min_slot (Size.pow2_ceil payload)

let chunk_size_for t slot = max t.config.chunk_bytes (Size.align_up slot t.config.chunk_bytes)

let make_region_internal t slot =
  {
    slot;
    free_slots = [];
    chunks = [];
    chunk_size = chunk_size_for t slot;
    live = Hashtbl.create 64;
  }

let make_region t ~slot_size =
  if slot_size <= 0 then invalid_arg "Region.make_region: non-positive slot size";
  make_region_internal t (max t.config.min_slot (Size.pow2_ceil slot_size))

let take_chunk t size =
  let cached =
    match Hashtbl.find_opt t.chunk_cache size with
    | Some ({ contents = base :: rest } as l) ->
      l := rest;
      Some base
    | Some { contents = [] } | None -> None
  in
  match cached with
  | Some base ->
    Metrics.add_ops t.metrics 1;
    base
  | None ->
    let base = Address_space.sbrk t.space size in
    Metrics.add_ops t.metrics 4;
    base

let region_alloc_payload t r payload =
  Metrics.add_ops t.metrics 2;
  let addr =
    match r.free_slots with
    | addr :: rest ->
      r.free_slots <- rest;
      addr
    | [] ->
      let base = take_chunk t r.chunk_size in
      r.chunks <- base :: r.chunks;
      let count = r.chunk_size / r.slot in
      for i = count - 1 downto 1 do
        r.free_slots <- (base + (i * r.slot)) :: r.free_slots
      done;
      base
  in
  Hashtbl.replace r.live addr payload;
  Hashtbl.replace t.owner addr r;
  Metrics.on_alloc t.metrics ~payload ~gross:r.slot ~tag:0 ~addr;
  addr

let region_free_internal t r addr =
  match Hashtbl.find_opt r.live addr with
  | None -> raise (Allocator.Invalid_free addr)
  | Some payload ->
    Hashtbl.remove r.live addr;
    Hashtbl.remove t.owner addr;
    r.free_slots <- addr :: r.free_slots;
    Metrics.add_ops t.metrics 2;
    Metrics.on_free t.metrics ~payload ~addr

let destroy_region t r =
  Hashtbl.iter
    (fun addr payload ->
      Hashtbl.remove t.owner addr;
      Metrics.on_free t.metrics ~payload ~addr)
    r.live;
  Hashtbl.reset r.live;
  r.free_slots <- [];
  let cache =
    match Hashtbl.find_opt t.chunk_cache r.chunk_size with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace t.chunk_cache r.chunk_size l;
      l
  in
  List.iter (fun base -> cache := base :: !cache) r.chunks;
  Metrics.add_ops t.metrics (List.length r.chunks);
  r.chunks <- []

let class_region t slot =
  match Hashtbl.find_opt t.by_class slot with
  | Some r -> r
  | None ->
    let r = make_region_internal t slot in
    Hashtbl.replace t.by_class slot r;
    r

let alloc t payload =
  if payload <= 0 then invalid_arg "Region.alloc: non-positive size";
  let slot = slot_of_request t payload in
  region_alloc_payload t (class_region t slot) payload

let free t addr =
  match Hashtbl.find_opt t.owner addr with
  | None -> raise (Allocator.Invalid_free addr)
  | Some r -> region_free_internal t r addr

let current_footprint t = Address_space.brk t.space
let max_footprint t = Address_space.high_water t.space
let metrics t = Metrics.snapshot t.metrics

let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and padding = ref 0 and live_gross = ref 0 in
  Hashtbl.iter
    (fun addr r ->
      let payload =
        match Hashtbl.find_opt r.live addr with Some p -> p | None -> 0
      in
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
