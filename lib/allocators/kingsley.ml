module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

type config = { header_bytes : int; min_class : int; chunk_bytes : int }

let default_config = { header_bytes = 4; min_class = 16; chunk_bytes = 4096 }

type t = {
  config : config;
  space : Address_space.t;
  free_lists : (int, int list ref) Hashtbl.t; (* class size -> free payload addrs *)
  sizes : (int, int) Hashtbl.t; (* payload addr -> class size (live blocks) *)
  req_sizes : (int, int) Hashtbl.t; (* payload addr -> requested bytes *)
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
    free_lists = Hashtbl.create 32;
    sizes = Hashtbl.create 256;
    req_sizes = Hashtbl.create 256;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
  }

let class_of_request t payload =
  max t.config.min_class (Size.pow2_ceil (payload + t.config.header_bytes))

let free_list t cls =
  match Hashtbl.find_opt t.free_lists cls with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.free_lists cls l;
    l

(* Grow the heap by a slab and carve it into [cls]-sized blocks, returning
   the first payload address and pushing the rest onto the class list. *)
let grow_class t cls =
  let request = max cls (t.config.chunk_bytes / cls * cls) in
  let base = Address_space.sbrk t.space request in
  Metrics.add_ops t.metrics 4;
  let l = free_list t cls in
  let count = request / cls in
  for i = count - 1 downto 1 do
    l := (base + (i * cls) + t.config.header_bytes) :: !l
  done;
  base + t.config.header_bytes

let alloc t payload =
  if payload <= 0 then invalid_arg "Kingsley.alloc: non-positive size";
  let cls = class_of_request t payload in
  let l = free_list t cls in
  Metrics.add_ops t.metrics 2;
  let addr =
    match !l with
    | addr :: rest ->
      l := rest;
      addr
    | [] -> grow_class t cls
  in
  Hashtbl.replace t.sizes addr cls;
  Hashtbl.replace t.req_sizes addr payload;
  Metrics.on_alloc t.metrics ~payload ~gross:cls ~tag:t.config.header_bytes ~addr;
  addr

let free t addr =
  match Hashtbl.find_opt t.sizes addr with
  | None -> raise (Allocator.Invalid_free addr)
  | Some cls ->
    let payload =
      match Hashtbl.find_opt t.req_sizes addr with Some p -> p | None -> 0
    in
    Hashtbl.remove t.sizes addr;
    Hashtbl.remove t.req_sizes addr;
    let l = free_list t cls in
    l := addr :: !l;
    Metrics.add_ops t.metrics 2;
    Metrics.on_free t.metrics ~payload ~addr

let current_footprint t = Address_space.brk t.space
let max_footprint t = Address_space.high_water t.space
let metrics t = Metrics.snapshot t.metrics

let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and tags = ref 0 and padding = ref 0 in
  let live_gross = ref 0 in
  Hashtbl.iter
    (fun addr cls ->
      let payload =
        match Hashtbl.find_opt t.req_sizes addr with Some p -> p | None -> 0
      in
      live_payload := !live_payload + payload;
      tags := !tags + t.config.header_bytes;
      padding := !padding + (cls - t.config.header_bytes - payload);
      live_gross := !live_gross + cls)
    t.sizes;
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
