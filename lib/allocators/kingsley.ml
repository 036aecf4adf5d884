module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Int_int_table = Dmm_util.Int_int_table
module Int_stack = Dmm_util.Int_stack
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

type config = { header_bytes : int; min_class : int; chunk_bytes : int }

let default_config = { header_bytes = 4; min_class = 16; chunk_bytes = 4096 }

(* A live block's class follows from its requested bytes, so one table
   holds the live set; the free lists are int stacks indexed by the
   class's log2 (classes stop at 2^61, where [Size.pow2_ceil] does). *)
type t = {
  config : config;
  space : Address_space.t;
  free_lists : Int_stack.t array; (* log2 of the class -> free payload addrs *)
  req_sizes : Int_int_table.t; (* live payload addr -> requested bytes; 0 = none *)
  metrics : Metrics.t;
}

let create ?(config = default_config) space =
  if not (Size.is_power_of_two config.min_class) then
    invalid_arg "Kingsley.create: min_class must be a power of two";
  if config.header_bytes < 0 || config.chunk_bytes <= 0 then
    invalid_arg "Kingsley.create: bad config";
  {
    config;
    space;
    free_lists = Array.init 62 (fun _ -> Int_stack.create ());
    req_sizes = Int_int_table.create ~size:256 ();
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
  }

let class_of_request t payload =
  Int.max t.config.min_class (Size.pow2_ceil (payload + t.config.header_bytes))

let free_list t cls = t.free_lists.(Size.bit_length cls - 1)

(* Grow the heap by a slab and carve it into [cls]-sized blocks, returning
   the first payload address and pushing the rest onto the class list so
   that they pop in address order. *)
let grow_class t cls =
  let request = Int.max cls (t.config.chunk_bytes / cls * cls) in
  let base = Address_space.sbrk t.space request in
  Metrics.add_ops t.metrics 4;
  let l = free_list t cls in
  let count = request / cls in
  for i = count - 1 downto 1 do
    Int_stack.push l (base + (i * cls) + t.config.header_bytes)
  done;
  base + t.config.header_bytes

let alloc t payload =
  if payload <= 0 then invalid_arg "Kingsley.alloc: non-positive size";
  let cls = class_of_request t payload in
  let l = free_list t cls in
  Metrics.add_ops t.metrics 2;
  let addr = if Int_stack.is_empty l then grow_class t cls else Int_stack.pop l in
  Int_int_table.replace t.req_sizes addr payload;
  Metrics.on_alloc t.metrics ~payload ~gross:cls ~tag:t.config.header_bytes ~addr;
  addr

let free t addr =
  let payload = Int_int_table.take t.req_sizes addr ~default:0 in
  if payload = 0 then raise (Allocator.Invalid_free addr);
  Int_stack.push (free_list t (class_of_request t payload)) addr;
  Metrics.add_ops t.metrics 2;
  Metrics.on_free t.metrics ~payload ~addr

let current_footprint t = Address_space.brk t.space
let max_footprint t = Address_space.high_water t.space
let metrics t = Metrics.snapshot t.metrics

let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and tags = ref 0 and padding = ref 0 in
  let live_gross = ref 0 in
  Int_int_table.iter
    (fun _ payload ->
      let cls = class_of_request t payload in
      live_payload := !live_payload + payload;
      tags := !tags + t.config.header_bytes;
      padding := !padding + (cls - t.config.header_bytes - payload);
      live_gross := !live_gross + cls)
    t.req_sizes;
  {
    Metrics.live_payload = !live_payload;
    tag_overhead = !tags;
    internal_padding = !padding;
    free_bytes = current_footprint t - !live_gross;
    total_held = current_footprint t;
  }

let allocator t =
  {
    Allocator.name = "kingsley";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> current_footprint t);
    max_footprint = (fun () -> max_footprint t);
    stats = (fun () -> metrics t);
    breakdown = (fun () -> breakdown t);
  }
