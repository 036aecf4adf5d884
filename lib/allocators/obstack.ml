module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Int_table = Dmm_util.Int_table
module Int_int_table = Dmm_util.Int_int_table
module Int_stack = Dmm_util.Int_stack
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

type config = { chunk_bytes : int; alignment : int }

let default_config = { chunk_bytes = 4096; alignment = 8 }

(* Both stacks are parallel int arrays, the top at index [n - 1]. An
   object's home is its chunk's index: chunks pop only when they empty,
   and an object keeps its chunk non-empty, so the index stays valid.
   [by_addr] maps an object's address to its index. *)
type t = {
  config : config;
  space : Address_space.t;
  mutable c_base : int array;
  mutable c_size : int array;
  mutable c_used : int array;
  mutable n_chunks : int;
  mutable o_addr : int array;
  mutable o_gross : int array;
  mutable o_payload : int array;
  mutable o_home : int array;
  mutable o_dead : bool array;
  mutable n_objs : int;
  by_addr : Int_int_table.t; (* object addr -> its index; -1 = none *)
  cache : Int_stack.t Int_table.t; (* chunk size -> cached bases *)
  metrics : Metrics.t;
  mutable held : int; (* counted here: the space may be shared *)
  mutable max_held : int;
  mutable dead_count : int;
}

(* Parks in the empty cells of [cache]; never pushed to. *)
let no_stack = Int_stack.create ()

let create ?(config = default_config) space =
  if config.chunk_bytes <= 0 || config.alignment <= 0 then
    invalid_arg "Obstack.create: bad config";
  {
    config;
    space;
    c_base = Array.make 16 0;
    c_size = Array.make 16 0;
    c_used = Array.make 16 0;
    n_chunks = 0;
    o_addr = Array.make 256 0;
    o_gross = Array.make 256 0;
    o_payload = Array.make 256 0;
    o_home = Array.make 256 0;
    o_dead = Array.make 256 false;
    n_objs = 0;
    by_addr = Int_int_table.create ~size:256 ();
    cache = Int_table.create ~size:4 no_stack;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
    held = 0;
    max_held = 0;
    dead_count = 0;
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push_chunk t base csize =
  if t.n_chunks = Array.length t.c_base then begin
    t.c_base <- grow t.c_base 0;
    t.c_size <- grow t.c_size 0;
    t.c_used <- grow t.c_used 0
  end;
  let c = t.n_chunks in
  t.c_base.(c) <- base;
  t.c_size.(c) <- csize;
  t.c_used.(c) <- 0;
  t.n_chunks <- c + 1

let take_chunk t csize =
  let cached = Int_table.find t.cache csize ~default:no_stack in
  let base =
    if not (Int_stack.is_empty cached) then begin
      Metrics.add_ops t.metrics 1;
      Int_stack.pop cached
    end
    else begin
      let base = Address_space.sbrk t.space csize in
      t.held <- t.held + csize;
      if t.held > t.max_held then t.max_held <- t.held;
      Metrics.add_ops t.metrics 4;
      base
    end
  in
  push_chunk t base csize

(* Release an emptied chunk: trim if it sits at the top of the heap,
   otherwise cache it for reuse. *)
let release_chunk t base csize =
  if base + csize = Address_space.brk t.space then begin
    Address_space.trim t.space base;
    t.held <- t.held - csize;
    Metrics.add_ops t.metrics 2
  end
  else begin
    let l =
      let l = Int_table.find t.cache csize ~default:no_stack in
      if l != no_stack then l
      else begin
        let l = Int_stack.create () in
        Int_table.replace t.cache csize l;
        l
      end
    in
    Int_stack.push l base;
    Metrics.add_ops t.metrics 1
  end

let push_obj t addr gross payload home =
  if t.n_objs = Array.length t.o_addr then begin
    t.o_addr <- grow t.o_addr 0;
    t.o_gross <- grow t.o_gross 0;
    t.o_payload <- grow t.o_payload 0;
    t.o_home <- grow t.o_home 0;
    t.o_dead <- grow t.o_dead false
  end;
  let i = t.n_objs in
  t.o_addr.(i) <- addr;
  t.o_gross.(i) <- gross;
  t.o_payload.(i) <- payload;
  t.o_home.(i) <- home;
  t.o_dead.(i) <- false;
  t.n_objs <- i + 1;
  Int_int_table.replace t.by_addr addr i

let alloc t payload =
  if payload <= 0 then invalid_arg "Obstack.alloc: non-positive size";
  let gross = Size.align_up payload t.config.alignment in
  Metrics.add_ops t.metrics 1;
  let top = t.n_chunks - 1 in
  if not (top >= 0 && t.c_used.(top) + gross <= t.c_size.(top)) then
    take_chunk t (Int.max t.config.chunk_bytes gross);
  let c = t.n_chunks - 1 in
  let addr = t.c_base.(c) + t.c_used.(c) in
  t.c_used.(c) <- t.c_used.(c) + gross;
  push_obj t addr gross payload c;
  Metrics.on_alloc t.metrics ~payload ~gross ~tag:0 ~addr;
  addr

(* Pop every dead object from the top of the stack, releasing chunks that
   empty along the way. Objects pop in reverse allocation order, so an
   emptied chunk is always the most recent one. *)
let rec pop_dead t =
  let i = t.n_objs - 1 in
  if i >= 0 && t.o_dead.(i) then begin
    t.n_objs <- i;
    Int_int_table.remove t.by_addr t.o_addr.(i);
    t.dead_count <- t.dead_count - 1;
    let c = t.o_home.(i) in
    t.c_used.(c) <- t.c_used.(c) - t.o_gross.(i);
    Metrics.add_ops t.metrics 1;
    if t.c_used.(c) = 0 then begin
      assert (c = t.n_chunks - 1);
      t.n_chunks <- c;
      release_chunk t t.c_base.(c) t.c_size.(c)
    end;
    pop_dead t
  end

let free t addr =
  let i = Int_int_table.find t.by_addr addr ~default:(-1) in
  if i < 0 || t.o_dead.(i) then raise (Allocator.Invalid_free addr);
  t.o_dead.(i) <- true;
  t.dead_count <- t.dead_count + 1;
  Metrics.on_free t.metrics ~payload:t.o_payload.(i) ~addr;
  Metrics.add_ops t.metrics 1;
  pop_dead t

let current_footprint t = t.held
let max_footprint t = t.max_held
let metrics t = Metrics.snapshot t.metrics

let live_objects t = t.n_objs - t.dead_count
let dead_objects t = t.dead_count

(* Dead-but-unreclaimed objects count as free bytes: they are not live
   payload, yet the obstack cannot reuse them until the stack above pops. *)
let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and padding = ref 0 and live_gross = ref 0 in
  for i = 0 to t.n_objs - 1 do
    if not t.o_dead.(i) then begin
      live_payload := !live_payload + t.o_payload.(i);
      padding := !padding + (t.o_gross.(i) - t.o_payload.(i));
      live_gross := !live_gross + t.o_gross.(i)
    end
  done;
  {
    Metrics.live_payload = !live_payload;
    tag_overhead = 0;
    internal_padding = !padding;
    free_bytes = t.held - !live_gross;
    total_held = t.held;
  }

let allocator t =
  {
    Allocator.name = "obstacks";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> current_footprint t);
    max_footprint = (fun () -> max_footprint t);
    stats = (fun () -> metrics t);
    breakdown = (fun () -> breakdown t);
  }
