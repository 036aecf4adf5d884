module Address_space = Dmm_vmem.Address_space

type design = Explorer.design = { vector : Decision_vector.t; params : Manager.params }

type t = {
  space : Address_space.t;
  default : design;
  overrides : (int, design) Hashtbl.t;
  managers : (int, Manager.t) Hashtbl.t;
  mutable current : int;
  mutable current_manager : Manager.t option; (* [current]'s, once its first alloc made it *)
  mutable order : Manager.t list; (* instantiation order, most recent first *)
  mutable live_payload : int; (* the composition's, across its managers *)
  mutable peak_live_payload : int;
}

let design_for t phase =
  match Hashtbl.find_opt t.overrides phase with Some d -> d | None -> t.default

let validate d =
  match Constraints.check d.vector with
  | [] -> ()
  | v :: _ ->
    invalid_arg
      (Format.asprintf "Global_manager: invalid design: %a" Constraints.pp_violation v)

let create space ~default ?(overrides = []) () =
  validate default;
  List.iter (fun (_, d) -> validate d) overrides;
  let tbl = Hashtbl.create 8 in
  List.iter (fun (p, d) -> Hashtbl.replace tbl p d) overrides;
  {
    space;
    default;
    overrides = tbl;
    managers = Hashtbl.create 8;
    current = 0;
    current_manager = None;
    order = [];
    live_payload = 0;
    peak_live_payload = 0;
  }

(* Alloc and free read the current phase's manager from a field, so only
   a phase change looks it up. *)
let set_phase t p =
  t.current <- p;
  t.current_manager <- Hashtbl.find_opt t.managers p

let current_phase t = t.current

(* A phase's manager is made at its first alloc. *)
let current_manager t =
  match t.current_manager with
  | Some m -> m
  | None ->
    let d = design_for t t.current in
    let m = Manager.create ~params:d.params d.vector t.space in
    Hashtbl.replace t.managers t.current m;
    t.order <- m :: t.order;
    t.current_manager <- Some m;
    m

let alloc t size =
  let addr = Manager.alloc (current_manager t) size in
  t.live_payload <- t.live_payload + size;
  if t.live_payload > t.peak_live_payload then t.peak_live_payload <- t.live_payload;
  addr

let release t m addr =
  let before = Manager.live_payload m in
  Manager.free m addr;
  t.live_payload <- t.live_payload - (before - Manager.live_payload m)

let rec free_in t (addr : int) = function
  | [] -> raise (Allocator.Invalid_free addr)
  | m :: rest -> if Manager.owns m addr then release t m addr else free_in t addr rest

(* The current phase's manager is the most likely owner; fall back to the
   others in most-recently-instantiated order. *)
let free t addr =
  match t.current_manager with
  | Some m when Manager.owns m addr -> release t m addr
  | Some _ | None -> free_in t addr t.order

let managers t =
  Hashtbl.fold (fun p m acc -> (p, m) :: acc) t.managers []
  |> List.sort (fun (p1, _) (p2, _) -> compare p1 p2)

(* Counts add up across the atomic managers; the payload figures do not
   (each manager peaks at its own time), so they are the composition's. *)
let combined_stats t : Metrics.snapshot =
  let zero : Metrics.snapshot =
    {
      allocs = 0;
      frees = 0;
      splits = 0;
      coalesces = 0;
      ops = 0;
      live_payload = t.live_payload;
      live_blocks = 0;
      peak_live_payload = t.peak_live_payload;
    }
  in
  List.fold_left
    (fun (acc : Metrics.snapshot) (_, m) ->
      let s = Manager.metrics m in
      {
        acc with
        Metrics.allocs = acc.allocs + s.allocs;
        frees = acc.frees + s.frees;
        splits = acc.splits + s.splits;
        coalesces = acc.coalesces + s.coalesces;
        ops = acc.ops + s.ops;
        live_blocks = acc.live_blocks + s.live_blocks;
      })
    zero (managers t)

let combined_breakdown t : Metrics.breakdown =
  List.fold_left
    (fun (acc : Metrics.breakdown) (_, m) ->
      let b = Manager.breakdown m in
      {
        Metrics.live_payload = acc.live_payload + b.live_payload;
        tag_overhead = acc.tag_overhead + b.tag_overhead;
        internal_padding = acc.internal_padding + b.internal_padding;
        free_bytes = acc.free_bytes + b.free_bytes;
        total_held = acc.total_held + b.total_held;
      })
    {
      Metrics.live_payload = 0;
      tag_overhead = 0;
      internal_padding = 0;
      free_bytes = 0;
      total_held = 0;
    }
    (managers t)

let allocator t =
  {
    Allocator.name = "custom-global";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = (fun p -> set_phase t p);
    current_footprint = (fun () -> Address_space.brk t.space);
    max_footprint = (fun () -> Address_space.high_water t.space);
    stats = (fun () -> combined_stats t);
    breakdown = (fun () -> combined_breakdown t);
  }
