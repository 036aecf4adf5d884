(* The flat-table baseline cores and the profile against naive models.

   Each model is the core's documented policy written with lists and
   [Hashtbl]s, one record per object: the bookkeeping the cores kept
   before they moved to [Int_table]s, int stacks and parallel arrays.
   Seeded properties drive random legal sequences through a core and its
   model side by side and compare, after every event, the returned
   address, [ops], the footprint and its high water mark and the
   [breakdown]; with a probe attached, the two event streams must be
   equal too. *)

module Address_space = Dmm_vmem.Address_space
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator
module Probe = Dmm_obs.Probe
module Size = Dmm_util.Size
module Kingsley = Dmm_allocators.Kingsley
module Region = Dmm_allocators.Region
module Obstack = Dmm_allocators.Obstack
module Profile = Dmm_core.Profile
module Histogram = Dmm_util.Histogram
module Stats = Dmm_util.Stats

let footprint_breakdown ~held ~live_payload ~tags ~padding ~live_gross : Metrics.breakdown =
  {
    Metrics.live_payload;
    tag_overhead = tags;
    internal_padding = padding;
    free_bytes = held - live_gross;
    total_held = held;
  }

(* Power-of-two classes with per-class LIFO free lists fed by carving
   slabs; a block's class is kept beside its requested size. *)
module Kingsley_model = struct
  type t = {
    config : Kingsley.config;
    space : Address_space.t;
    free_lists : (int, int list ref) Hashtbl.t;
    sizes : (int, int) Hashtbl.t;
    req_sizes : (int, int) Hashtbl.t;
    metrics : Metrics.t;
  }

  let create space =
    {
      config = Kingsley.default_config;
      space;
      free_lists = Hashtbl.create 8;
      sizes = Hashtbl.create 8;
      req_sizes = Hashtbl.create 8;
      metrics = Metrics.create ~probe:(Address_space.probe space) ();
    }

  let free_list t cls =
    match Hashtbl.find_opt t.free_lists cls with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace t.free_lists cls l;
      l

  let alloc t payload =
    let hdr = t.config.header_bytes in
    let cls = max t.config.min_class (Size.pow2_ceil (payload + hdr)) in
    let l = free_list t cls in
    Metrics.add_ops t.metrics 2;
    let addr =
      match !l with
      | addr :: rest ->
        l := rest;
        addr
      | [] ->
        let request = max cls (t.config.chunk_bytes / cls * cls) in
        let base = Address_space.sbrk t.space request in
        Metrics.add_ops t.metrics 4;
        l := List.init ((request / cls) - 1) (fun i -> base + ((i + 1) * cls) + hdr);
        base + hdr
    in
    Hashtbl.replace t.sizes addr cls;
    Hashtbl.replace t.req_sizes addr payload;
    Metrics.on_alloc t.metrics ~payload ~gross:cls ~tag:hdr ~addr;
    addr

  let free t addr =
    let cls = Hashtbl.find t.sizes addr and payload = Hashtbl.find t.req_sizes addr in
    Hashtbl.remove t.sizes addr;
    Hashtbl.remove t.req_sizes addr;
    let l = free_list t cls in
    l := addr :: !l;
    Metrics.add_ops t.metrics 2;
    Metrics.on_free t.metrics ~payload ~addr

  let breakdown t =
    let hdr = t.config.header_bytes in
    let live_payload, padding, live_gross =
      Hashtbl.fold
        (fun addr cls (p, pad, g) ->
          let payload = Hashtbl.find t.req_sizes addr in
          (p + payload, pad + (cls - hdr - payload), g + cls))
        t.sizes (0, 0, 0)
    in
    footprint_breakdown ~held:(Address_space.brk t.space) ~live_payload
      ~tags:(hdr * Hashtbl.length t.sizes) ~padding ~live_gross
end

(* One region per power-of-two slot size, fixed slots carved from chunks;
   destroyed regions free their live slots in address order and donate
   their chunks, oldest first out, to a shared cache. *)
module Region_model = struct
  type region = {
    slot : int;
    mutable free_slots : int list;
    mutable chunks : int list; (* newest first *)
    chunk_size : int;
    live : (int, int) Hashtbl.t;
  }

  type t = {
    config : Region.config;
    space : Address_space.t;
    by_class : (int, region) Hashtbl.t;
    owner : (int, region) Hashtbl.t;
    chunk_cache : (int, int list ref) Hashtbl.t;
    metrics : Metrics.t;
  }

  let create space =
    {
      config = Region.default_config;
      space;
      by_class = Hashtbl.create 8;
      owner = Hashtbl.create 8;
      chunk_cache = Hashtbl.create 8;
      metrics = Metrics.create ~probe:(Address_space.probe space) ();
    }

  let make_region t slot_size =
    let slot = max t.config.min_slot (Size.pow2_ceil slot_size) in
    {
      slot;
      free_slots = [];
      chunks = [];
      chunk_size = max t.config.chunk_bytes (Size.align_up slot t.config.chunk_bytes);
      live = Hashtbl.create 8;
    }

  let take_chunk t size =
    match Hashtbl.find_opt t.chunk_cache size with
    | Some ({ contents = base :: rest } as l) ->
      l := rest;
      Metrics.add_ops t.metrics 1;
      base
    | Some { contents = [] } | None ->
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
        r.free_slots <- List.init ((r.chunk_size / r.slot) - 1) (fun i -> base + ((i + 1) * r.slot));
        base
    in
    Hashtbl.replace r.live addr payload;
    Hashtbl.replace t.owner addr r;
    Metrics.on_alloc t.metrics ~payload ~gross:r.slot ~tag:0 ~addr;
    addr

  let region_free t r addr =
    match Hashtbl.find_opt r.live addr with
    | None -> raise (Allocator.Invalid_free addr)
    | Some payload ->
      Hashtbl.remove r.live addr;
      Hashtbl.remove t.owner addr;
      r.free_slots <- addr :: r.free_slots;
      Metrics.add_ops t.metrics 2;
      Metrics.on_free t.metrics ~payload ~addr

  let destroy_region t r =
    let live = List.sort compare (Hashtbl.fold (fun a p acc -> (a, p) :: acc) r.live []) in
    List.iter
      (fun (addr, payload) ->
        Hashtbl.remove t.owner addr;
        Metrics.on_free t.metrics ~payload ~addr)
      live;
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
    cache := List.rev_append r.chunks !cache;
    Metrics.add_ops t.metrics (List.length r.chunks);
    r.chunks <- []

  let alloc t payload =
    let slot = max t.config.min_slot (Size.pow2_ceil payload) in
    let r =
      match Hashtbl.find_opt t.by_class slot with
      | Some r -> r
      | None ->
        let r = make_region t slot in
        Hashtbl.replace t.by_class slot r;
        r
    in
    region_alloc_payload t r payload

  let free t addr = region_free t (Hashtbl.find t.owner addr) addr

  let breakdown t =
    let live_payload, padding, live_gross =
      Hashtbl.fold
        (fun addr r (p, pad, g) ->
          let payload = Hashtbl.find r.live addr in
          (p + payload, pad + (r.slot - payload), g + r.slot))
        t.owner (0, 0, 0)
    in
    footprint_breakdown ~held:(Address_space.brk t.space) ~live_payload ~tags:0 ~padding
      ~live_gross
end

(* Objects bump-allocated in chunks and popped in LIFO order: a free of
   anything but the top marks the object dead, and the dead run on top
   pops, its emptied chunks trimmed at the heap's top or cached. *)
module Obstack_model = struct
  type chunk = { base : int; csize : int; mutable used : int }
  type obj = { addr : int; gross : int; payload : int; mutable dead : bool; home : chunk }

  type t = {
    config : Obstack.config;
    space : Address_space.t;
    mutable chunks : chunk list;
    mutable stack : obj list;
    by_addr : (int, obj) Hashtbl.t;
    cache : (int, int list ref) Hashtbl.t;
    metrics : Metrics.t;
    mutable held : int;
    mutable max_held : int;
  }

  let create space =
    {
      config = Obstack.default_config;
      space;
      chunks = [];
      stack = [];
      by_addr = Hashtbl.create 8;
      cache = Hashtbl.create 8;
      metrics = Metrics.create ~probe:(Address_space.probe space) ();
      held = 0;
      max_held = 0;
    }

  let take_chunk t csize =
    let base =
      match Hashtbl.find_opt t.cache csize with
      | Some ({ contents = base :: rest } as l) ->
        l := rest;
        Metrics.add_ops t.metrics 1;
        base
      | Some { contents = [] } | None ->
        let base = Address_space.sbrk t.space csize in
        t.held <- t.held + csize;
        t.max_held <- max t.max_held t.held;
        Metrics.add_ops t.metrics 4;
        base
    in
    { base; csize; used = 0 }

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
    let gross = Size.align_up payload t.config.alignment in
    Metrics.add_ops t.metrics 1;
    let chunk =
      match t.chunks with
      | c :: _ when c.used + gross <= c.csize -> c
      | _ ->
        let c = take_chunk t (max t.config.chunk_bytes gross) in
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

  let rec pop_dead t =
    match t.stack with
    | o :: rest when o.dead ->
      t.stack <- rest;
      Hashtbl.remove t.by_addr o.addr;
      o.home.used <- o.home.used - o.gross;
      Metrics.add_ops t.metrics 1;
      if o.home.used = 0 then begin
        t.chunks <- List.tl t.chunks;
        release_chunk t o.home
      end;
      pop_dead t
    | _ -> ()

  let free t addr =
    let o = Hashtbl.find t.by_addr addr in
    o.dead <- true;
    Metrics.on_free t.metrics ~payload:o.payload ~addr;
    Metrics.add_ops t.metrics 1;
    pop_dead t

  let breakdown t =
    let live = List.filter (fun o -> not o.dead) t.stack in
    let sum f = List.fold_left (fun acc o -> acc + f o) 0 live in
    footprint_breakdown ~held:t.held ~live_payload:(sum (fun o -> o.payload)) ~tags:0
      ~padding:(sum (fun o -> o.gross - o.payload))
      ~live_gross:(sum (fun o -> o.gross))
end

let model_allocator ~alloc ~free ~footprint ~max_footprint ~metrics ~breakdown : Allocator.t =
  {
    Allocator.name = "model";
    alloc;
    free;
    phase = Allocator.ignore_phase;
    current_footprint = footprint;
    max_footprint;
    stats = (fun () -> Metrics.snapshot metrics);
    breakdown;
  }

let models =
  [
    ( "kingsley",
      (fun space -> Kingsley.allocator (Kingsley.create space)),
      fun space ->
        let m = Kingsley_model.create space in
        model_allocator ~alloc:(Kingsley_model.alloc m) ~free:(Kingsley_model.free m)
          ~footprint:(fun () -> Address_space.brk space)
          ~max_footprint:(fun () -> Address_space.high_water space)
          ~metrics:m.metrics
          ~breakdown:(fun () -> Kingsley_model.breakdown m) );
    ( "regions",
      (fun space -> Region.allocator (Region.create space)),
      fun space ->
        let m = Region_model.create space in
        model_allocator ~alloc:(Region_model.alloc m) ~free:(Region_model.free m)
          ~footprint:(fun () -> Address_space.brk space)
          ~max_footprint:(fun () -> Address_space.high_water space)
          ~metrics:m.metrics
          ~breakdown:(fun () -> Region_model.breakdown m) );
    ( "obstacks",
      (fun space -> Obstack.allocator (Obstack.create space)),
      fun space ->
        let m = Obstack_model.create space in
        model_allocator ~alloc:(Obstack_model.alloc m) ~free:(Obstack_model.free m)
          ~footprint:(fun () -> m.held)
          ~max_footprint:(fun () -> m.max_held)
          ~metrics:m.metrics
          ~breakdown:(fun () -> Obstack_model.breakdown m) );
  ]

(* A space for each side; with [probed], each records its event stream. *)
let space probed =
  if not probed then (Address_space.create (), fun () -> [])
  else begin
    let probe = Probe.create () and events = ref [] in
    Probe.attach probe (fun clock e -> events := (clock, e) :: !events);
    (Address_space.create ~probe (), fun () -> !events)
  end

type op = Alloc of int | Free of int (* the [k]-th most recent live block *)

let show_op = function Alloc n -> Printf.sprintf "alloc %d" n | Free k -> Printf.sprintf "free %d" k

(* Sizes straddle the classes and the chunk size; frees lean towards the
   most recent block, so dead runs pop and chunks empty. *)
let gen_ops =
  let open QCheck.Gen in
  let size = frequency [ (6, 1 -- 64); (3, 65 -- 1500); (1, 1500 -- 9000) ] in
  let victim = frequency [ (4, return 0); (2, 1 -- 3); (1, 0 -- 60) ] in
  pair bool (list_size (0 -- 250) (frequency [ (5, map (fun n -> Alloc n) size); (4, map (fun k -> Free k) victim) ]))

let arb_ops =
  QCheck.make
    ~print:(fun (probed, ops) ->
      Printf.sprintf "probed=%b: %s" probed (String.concat "; " (List.map show_op ops)))
    gen_ops

let observe (a : Allocator.t) =
  ((Allocator.stats a).ops, Allocator.current_footprint a, Allocator.max_footprint a, Allocator.breakdown a)

let prop_core (name, core, model) =
  QCheck.Test.make ~name:(name ^ " agrees with a naive model") ~count:200 arb_ops
    (fun (probed, ops) ->
      let cspace, cevents = space probed and mspace, mevents = space probed in
      let c = core cspace and m = model mspace in
      let live = ref [] in
      List.for_all
        (fun op ->
          let same_addr =
            match op with
            | Alloc n ->
              let a = Allocator.alloc c n and b = Allocator.alloc m n in
              live := a :: !live;
              a = b
            | Free k -> (
              match !live with
              | [] -> true
              | l ->
                let addr = List.nth l (k mod List.length l) in
                live := List.filter (( <> ) addr) l;
                Allocator.free c addr;
                Allocator.free m addr;
                true)
          in
          same_addr && observe c = observe m)
        ops
      && cevents () = mevents ())

(* The explicit-region API: regions made, filled, emptied and destroyed
   in random order, with a probe on, so the order of [destroy_region]'s
   frees is compared too. *)
type region_op = Make of int | Slot of int | Release of int * int | Destroy of int

let show_region_op = function
  | Make n -> Printf.sprintf "make %d" n
  | Slot r -> Printf.sprintf "slot %d" r
  | Release (r, k) -> Printf.sprintf "release %d %d" r k
  | Destroy r -> Printf.sprintf "destroy %d" r

let prop_regions_explicit =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (1, map (fun n -> Make n) (oneofl [ 1; 16; 48; 64; 200; 3000; 5000 ]));
        (8, map (fun r -> Slot r) (0 -- 5));
        (4, map2 (fun r k -> Release (r, k)) (0 -- 5) (0 -- 40));
        (1, map (fun r -> Destroy r) (0 -- 5));
      ]
  in
  QCheck.Test.make ~name:"regions' explicit API agrees with a naive model" ~count:200
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_region_op ops)) (list_size (0 -- 200) op))
    (fun ops ->
      let cspace, cevents = space true and mspace, mevents = space true in
      let c = Region.create cspace and m = Region_model.create mspace in
      (* Per region: the core's, the model's, and its live slots. *)
      let regions = ref [||] in
      let nth i f = if Array.length !regions > 0 then f !regions.(i mod Array.length !regions) in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Make n ->
            regions :=
              Array.append !regions
                [| (Region.make_region c ~slot_size:n, Region_model.make_region m n, ref []) |]
          | Slot i ->
            nth i (fun (rc, rm, live) ->
                let a = Region.region_alloc c rc and b = Region_model.region_alloc_payload m rm rm.slot in
                live := a :: !live;
                if a <> b then ok := false)
          | Release (i, k) ->
            nth i (fun (rc, rm, live) ->
                match !live with
                | [] -> ()
                | l ->
                  let addr = List.nth l (k mod List.length l) in
                  live := List.filter (( <> ) addr) l;
                  Region.region_free c rc addr;
                  Region_model.region_free m rm addr)
          | Destroy i ->
            nth i (fun (rc, rm, live) ->
                live := [];
                Region.destroy_region c rc;
                Region_model.destroy_region m rm));
          let got = observe (Region.allocator c) in
          let want =
            ( Metrics.ops m.metrics,
              Address_space.brk mspace,
              Address_space.high_water mspace,
              Region_model.breakdown m )
          in
          if got <> want then ok := false)
        ops;
      !ok && cevents () = mevents ())

(* The profile against the same bookkeeping kept naively: a [Hashtbl] of
   live ids, a list for the LIFO stack, a [Histogram] filled per
   allocation and the Welford statistics recomputed here in a record with
   an int count. *)
module Welford = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable total : float;
    mutable lo : float;
    mutable hi : float;
  }

  let create () = { count = 0; mean = 0.0; m2 = 0.0; total = 0.0; lo = infinity; hi = neg_infinity }

  let add t n =
    let x = float_of_int n in
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    t.lo <- Float.min t.lo x;
    t.hi <- Float.max t.hi x

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let n = a.count + b.count in
      let delta = b.mean -. a.mean in
      {
        count = n;
        mean = a.mean +. (delta *. float_of_int b.count /. float_of_int n);
        m2 =
          a.m2 +. b.m2
          +. (delta *. delta *. float_of_int a.count *. float_of_int b.count /. float_of_int n);
        total = a.total +. b.total;
        lo = Float.min a.lo b.lo;
        hi = Float.max a.hi b.hi;
      }
    end

  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int t.count
  let mean t = if t.count = 0 then 0.0 else t.mean
end

module Profile_model = struct
  type summary = {
    phase : int;
    mutable allocs : int;
    mutable frees : int;
    hist : Histogram.t;
    mutable sizes : Welford.t;
    mutable lifetimes : Welford.t;
    mutable peak_bytes : int;
    mutable peak_blocks : int;
    mutable lifo : int;
  }

  type t = {
    accs : (int, summary) Hashtbl.t;
    live : (int, int * int) Hashtbl.t; (* id -> size, birth *)
    mutable stack : (int * int) list; (* birth, id *)
    mutable seq : int;
    mutable phase : int;
    mutable bytes : int;
  }

  let summary phase =
    {
      phase;
      allocs = 0;
      frees = 0;
      hist = Histogram.create ();
      sizes = Welford.create ();
      lifetimes = Welford.create ();
      peak_bytes = 0;
      peak_blocks = 0;
      lifo = 0;
    }

  let create () =
    let t = { accs = Hashtbl.create 8; live = Hashtbl.create 8; stack = []; seq = 0; phase = 0; bytes = 0 } in
    Hashtbl.replace t.accs 0 (summary 0);
    t

  let acc t =
    match Hashtbl.find_opt t.accs t.phase with
    | Some a -> a
    | None ->
      let a = summary t.phase in
      Hashtbl.replace t.accs t.phase a;
      a

  let alloc t id size =
    t.seq <- t.seq + 1;
    let a = acc t in
    a.allocs <- a.allocs + 1;
    Histogram.add a.hist size;
    Welford.add a.sizes size;
    Hashtbl.replace t.live id (size, t.seq);
    t.bytes <- t.bytes + size;
    t.stack <- (t.seq, id) :: t.stack;
    a.peak_bytes <- max a.peak_bytes t.bytes;
    a.peak_blocks <- max a.peak_blocks (Hashtbl.length t.live)

  (* The most recent allocation that is still live, as the stack's top
     once entries of freed or re-allocated ids are skipped. *)
  let rec top t = function
    | [] -> None
    | (seq, id) :: rest -> (
      match Hashtbl.find_opt t.live id with Some (_, born) when born = seq -> Some id | _ -> top t rest)

  let free t id =
    let size, born = Hashtbl.find t.live id in
    t.seq <- t.seq + 1;
    let a = acc t in
    a.frees <- a.frees + 1;
    Welford.add a.lifetimes (t.seq - born);
    if top t t.stack = Some id then a.lifo <- a.lifo + 1;
    Hashtbl.remove t.live id;
    t.bytes <- t.bytes - size

  let phases t =
    List.sort (fun (a : summary) b -> compare a.phase b.phase) (Hashtbl.fold (fun _ a acc -> a :: acc) t.accs [])

  let total t =
    List.fold_left
      (fun acc s ->
        {
          phase = -1;
          allocs = acc.allocs + s.allocs;
          frees = acc.frees + s.frees;
          hist = Histogram.merge acc.hist s.hist;
          sizes = Welford.merge acc.sizes s.sizes;
          lifetimes = Welford.merge acc.lifetimes s.lifetimes;
          peak_bytes = max acc.peak_bytes s.peak_bytes;
          peak_blocks = max acc.peak_blocks s.peak_blocks;
          lifo = acc.lifo + s.lifo;
        })
      (summary (-1)) (phases t)
end

(* Floats are compared bit for bit. *)
let bits = Int64.bits_of_float

let stats_agree s (w : Welford.t) =
  Stats.count s = w.count
  && bits (Stats.total s) = bits w.total
  && bits (Stats.mean s) = bits (Welford.mean w)
  && bits (Stats.variance s) = bits (Welford.variance w)
  && (w.count = 0 || (bits (Stats.min_value s) = bits w.lo && bits (Stats.max_value s) = bits w.hi))

let summary_agrees (s : Profile.phase_summary) (m : Profile_model.summary) =
  s.phase = m.phase && s.allocs = m.allocs && s.frees = m.frees
  && Histogram.bindings s.size_hist = Histogram.bindings m.hist
  && Histogram.total s.size_hist = Histogram.total m.hist
  && stats_agree s.size_stats m.sizes
  && stats_agree s.lifetime_stats m.lifetimes
  && s.peak_live_bytes = m.peak_bytes && s.peak_live_blocks = m.peak_blocks && s.lifo_frees = m.lifo

type profile_op = P_alloc of int | P_realloc of int * int | P_free of int | P_phase of int

let show_profile_op = function
  | P_alloc n -> Printf.sprintf "alloc %d" n
  | P_realloc (k, n) -> Printf.sprintf "realloc %d %d" k n
  | P_free k -> Printf.sprintf "free %d" k
  | P_phase p -> Printf.sprintf "phase %d" p

(* Fresh ids count up from 0; [P_realloc] takes a freed id again, which
   leaves a superseded entry in the LIFO stack. *)
let prop_profile =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun n -> P_alloc n) (oneof [ 1 -- 64; oneofl [ 16; 32; 100 ] ]));
        (2, map2 (fun k n -> P_realloc (k, n)) (0 -- 30) (1 -- 64));
        (6, map (fun k -> P_free k) (frequency [ (3, return 0); (1, 0 -- 30) ]));
        (1, map (fun p -> P_phase p) (oneofl [ 0; 1; 2; -4; 7 ]));
      ]
  in
  QCheck.Test.make ~name:"profile agrees with a naive model" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_profile_op ops)) (list_size (0 -- 200) op))
    (fun ops ->
      let p = Profile.create () and m = Profile_model.create () in
      let next = ref 0 and live = ref [] and freed = ref [] in
      let alloc id n =
        Profile.observe_alloc p ~id ~size:n;
        Profile_model.alloc m id n;
        live := id :: !live
      in
      List.iter
        (function
          | P_alloc n ->
            alloc !next n;
            incr next
          | P_realloc (k, n) -> (
            match !freed with
            | [] -> ()
            | l ->
              let id = List.nth l (k mod List.length l) in
              freed := List.filter (( <> ) id) l;
              alloc id n)
          | P_free k -> (
            match !live with
            | [] -> ()
            | l ->
              let id = List.nth l (k mod List.length l) in
              live := List.filter (( <> ) id) l;
              freed := id :: !freed;
              Profile.observe_free p ~id;
              Profile_model.free m id)
          | P_phase ph ->
            Profile.observe_phase p ph;
            m.phase <- ph)
        ops;
      let phases = Profile.phases p and want = Profile_model.phases m in
      List.length phases = List.length want
      && List.for_all2 summary_agrees phases want
      && summary_agrees (Profile.total p) (Profile_model.total m)
      && Profile.leaked p = Hashtbl.length m.live
      && Profile.phase_ids p = List.map (fun (s : Profile_model.summary) -> s.phase) want)

let check_negative_id () =
  let p = Profile.create () in
  Alcotest.check_raises "negative id" (Invalid_argument "Profile.observe_alloc: negative id")
    (fun () -> Profile.observe_alloc p ~id:(-1) ~size:8);
  Alcotest.check_raises "free of a negative id" (Invalid_argument "Profile.observe_free: id not live")
    (fun () -> Profile.observe_free p ~id:(-1));
  (* An id far past the arrays grows them. *)
  Profile.observe_alloc p ~id:100_000 ~size:8;
  Profile.observe_free p ~id:100_000;
  Alcotest.(check int) "lifo" 1 (Profile.total p).Profile.lifo_frees

let seeded seed t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let tests =
  ( "baseline models",
    Alcotest.test_case "profile ids are non-negative" `Quick check_negative_id
    :: List.mapi (fun i m -> seeded (41 + i) (prop_core m)) models
    @ [ seeded 44 prop_regions_explicit; seeded 45 prop_profile ] )
