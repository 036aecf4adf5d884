module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator

type config = { chunk_bytes : int; alignment : int }

let default_config = { chunk_bytes = 4096; alignment = 8 }

type chunk = { base : int; csize : int; mutable used : int }

type obj = {
  addr : int;
  gross : int;
  payload : int;
  mutable dead : bool;
  home : chunk;
}

type t = {
  config : config;
  space : Address_space.t;
  mutable chunks : chunk list; (* most recent first *)
  mutable stack : obj list; (* most recent first *)
  by_addr : (int, obj) Hashtbl.t;
  cache : (int, int list ref) Hashtbl.t; (* chunk size -> cached bases *)
  metrics : Metrics.t;
  mutable held : int; (* counted here: the space may be shared *)
  mutable max_held : int;
  mutable dead_count : int;
}

let create ?(config = default_config) space =
  if config.chunk_bytes <= 0 || config.alignment <= 0 then
    invalid_arg "Obstack.create: bad config";
  {
    config;
    space;
    chunks = [];
    stack = [];
    by_addr = Hashtbl.create 256;
    cache = Hashtbl.create 4;
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
    held = 0;
    max_held = 0;
    dead_count = 0;
  }

let take_chunk t csize =
  let cached =
    match Hashtbl.find_opt t.cache csize with
    | Some ({ contents = base :: rest } as l) ->
      l := rest;
      Some base
    | Some { contents = [] } | None -> None
  in
  let base =
    match cached with
    | Some base ->
      Metrics.add_ops t.metrics 1;
      base
    | None ->
      let base = Address_space.sbrk t.space csize in
      t.held <- t.held + csize;
      if t.held > t.max_held then t.max_held <- t.held;
      Metrics.add_ops t.metrics 4;
      base
  in
  { base; csize; used = 0 }

(* Release an emptied chunk: trim if it sits at the top of the heap,
   otherwise cache it for reuse. *)
let release_chunk t c =
  if c.base + c.csize = Address_space.brk t.space then begin
    Address_space.trim t.space c.base;
    t.held <- t.held - c.csize;
    Metrics.add_ops t.metrics 2
  end
  else begin
    let l =
      match Hashtbl.find_opt t.cache c.csize with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.cache c.csize l;
        l
    in
    l := c.base :: !l;
    Metrics.add_ops t.metrics 1
  end

let alloc t payload =
  if payload <= 0 then invalid_arg "Obstack.alloc: non-positive size";
  let gross = Size.align_up payload t.config.alignment in
  Metrics.add_ops t.metrics 1;
  let chunk =
    match t.chunks with
    | c :: _ when c.used + gross <= c.csize -> c
    | _ ->
      let csize = max t.config.chunk_bytes gross in
      let c = take_chunk t csize in
      t.chunks <- c :: t.chunks;
      c
  in
  let addr = chunk.base + chunk.used in
  chunk.used <- chunk.used + gross;
  let o = { addr; gross; payload; dead = false; home = chunk } in
  t.stack <- o :: t.stack;
  Hashtbl.replace t.by_addr addr o;
  Metrics.on_alloc t.metrics ~payload ~gross ~tag:0 ~addr;
  addr

(* Pop every dead object from the top of the stack, releasing chunks that
   empty along the way. *)
let rec pop_dead t =
  match t.stack with
  | o :: rest when o.dead ->
    t.stack <- rest;
    Hashtbl.remove t.by_addr o.addr;
    t.dead_count <- t.dead_count - 1;
    o.home.used <- o.home.used - o.gross;
    Metrics.add_ops t.metrics 1;
    if o.home.used = 0 then begin
      (match t.chunks with
      | c :: cs when c == o.home ->
        t.chunks <- cs;
        release_chunk t c
      | _ ->
        (* Objects pop in reverse allocation order, so an emptied chunk is
           always the most recent one. *)
        assert false)
    end;
    pop_dead t
  | _ :: _ | [] -> ()

let free t addr =
  match Hashtbl.find_opt t.by_addr addr with
  | None -> raise (Allocator.Invalid_free addr)
  | Some o when o.dead -> raise (Allocator.Invalid_free addr)
  | Some o ->
    o.dead <- true;
    t.dead_count <- t.dead_count + 1;
    Metrics.on_free t.metrics ~payload:o.payload ~addr;
    Metrics.add_ops t.metrics 1;
    pop_dead t

let current_footprint t = t.held
let max_footprint t = t.max_held
let metrics t = Metrics.snapshot t.metrics

let live_objects t = Hashtbl.length t.by_addr - t.dead_count
let dead_objects t = t.dead_count

(* Dead-but-unreclaimed objects count as free bytes: they are not live
   payload, yet the obstack cannot reuse them until the stack above pops. *)
let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and padding = ref 0 and live_gross = ref 0 in
  Hashtbl.iter
    (fun _ o ->
      if not o.dead then begin
        live_payload := !live_payload + o.payload;
        padding := !padding + (o.gross - o.payload);
        live_gross := !live_gross + o.gross
      end)
    t.by_addr;
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
