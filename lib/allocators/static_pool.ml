module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

type pool = { slot : int; mutable free_slots : int list }

type t = {
  space : Address_space.t;
  pools : (int, pool) Hashtbl.t; (* slot size -> pool *)
  slot_sizes : int array; (* ascending *)
  live : (int, int * int) Hashtbl.t; (* addr -> slot (0 = overflow), payload *)
  metrics : Metrics.t;
  reserved : int;
  mutable overflow_allocs : int;
}

let create ?(margin = 1.0) space capacities =
  if margin <= 0.0 then invalid_arg "Static_pool.create: non-positive margin";
  let scaled =
    List.map
      (fun (slot, cap) ->
        if slot <= 0 || not (Size.is_power_of_two slot) then
          invalid_arg "Static_pool.create: slot sizes must be powers of two";
        if cap < 0 then invalid_arg "Static_pool.create: negative capacity";
        (slot, int_of_float (ceil (float_of_int cap *. margin))))
      capacities
  in
  let sizes = List.map fst scaled in
  if List.length (List.sort_uniq compare sizes) <> List.length sizes then
    invalid_arg "Static_pool.create: duplicate slot sizes";
  let pools = Hashtbl.create 16 in
  let reserved = ref 0 in
  List.iter
    (fun (slot, cap) ->
      let base = if cap = 0 then 0 else Address_space.sbrk space (slot * cap) in
      reserved := !reserved + (slot * cap);
      let free_slots = List.init cap (fun i -> base + (i * slot)) in
      Hashtbl.replace pools slot { slot; free_slots })
    (List.sort compare scaled);
  {
    space;
    pools;
    slot_sizes = Array.of_list (List.sort compare sizes);
    live = Hashtbl.create 256;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
    reserved = !reserved;
    overflow_allocs = 0;
  }

let class_for t payload =
  let n = Array.length t.slot_sizes in
  let rec go i =
    if i >= n then None
    else if t.slot_sizes.(i) >= payload then Some t.slot_sizes.(i)
    else go (i + 1)
  in
  go 0

(* Overflows grab emergency memory: the situation a statically sized
   system cannot actually survive. *)
let overflow_alloc t payload =
  t.overflow_allocs <- t.overflow_allocs + 1;
  let gross = Size.align_up (max 8 payload) 8 in
  let addr = Address_space.sbrk t.space gross in
  Hashtbl.replace t.live addr (0, payload);
  Metrics.add_ops t.metrics 4;
  Metrics.on_alloc t.metrics ~payload ~gross ~tag:0 ~addr;
  addr

let alloc t payload =
  if payload <= 0 then invalid_arg "Static_pool.alloc: non-positive size";
  Metrics.add_ops t.metrics 2;
  match class_for t payload with
  | None -> overflow_alloc t payload
  | Some slot -> (
    let pool = Hashtbl.find t.pools slot in
    match pool.free_slots with
    | addr :: rest ->
      pool.free_slots <- rest;
      Hashtbl.replace t.live addr (slot, payload);
      Metrics.on_alloc t.metrics ~payload ~gross:slot ~tag:0 ~addr;
      addr
    | [] -> overflow_alloc t payload)

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> raise (Allocator.Invalid_free addr)
  | Some (slot, payload) ->
    Hashtbl.remove t.live addr;
    Metrics.on_free t.metrics ~payload ~addr;
    Metrics.add_ops t.metrics 2;
    (* Emergency memory is not recycled; the static design had no plan
       for it. *)
    if slot <> 0 then begin
      let pool = Hashtbl.find t.pools slot in
      pool.free_slots <- addr :: pool.free_slots
    end

let reserved_bytes t = t.reserved
let overflow_allocs t = t.overflow_allocs
let current_footprint t = Address_space.brk t.space
let max_footprint t = Address_space.high_water t.space
let overflow_bytes t = current_footprint t - t.reserved
let metrics t = Metrics.snapshot t.metrics

let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and padding = ref 0 and live_gross = ref 0 in
  Hashtbl.iter
    (fun _ (slot, payload) ->
      let gross = if slot = 0 then Size.align_up (max 8 payload) 8 else slot in
      live_payload := !live_payload + payload;
      padding := !padding + (gross - payload);
      live_gross := !live_gross + gross)
    t.live;
  {
    Metrics.live_payload = !live_payload;
    tag_overhead = 0;
    internal_padding = !padding;
    free_bytes = current_footprint t - !live_gross;
    total_held = current_footprint t;
  }

let allocator t =
  {
    Allocator.name = "static-worst-case";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> current_footprint t);
    max_footprint = (fun () -> max_footprint t);
    stats = (fun () -> metrics t);
    breakdown = (fun () -> breakdown t);
  }
