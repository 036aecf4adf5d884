module Address_space = Dmm_vmem.Address_space
module Size = Dmm_util.Size
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator
module Block = Dmm_core.Block
module Free_structure = Dmm_core.Free_structure

type config = {
  granularity : int;
  trim_threshold : int;
  header_bytes : int;
  alignment : int;
  small_bin_max : int;
}

let default_config =
  {
    granularity = 65536;
    trim_threshold = 131072;
    header_bytes = 4;
    alignment = 8;
    small_bin_max = 512;
  }

(* Chunk bookkeeping lives in-band, dlmalloc style: every chunk in
   [0, top_addr) carries a 32-bit boundary tag at its base and a copy at its
   last 4 bytes, encoding [size * 2 + used]. Neighbour discovery on free is
   pure arena arithmetic — the header at [end_addr] is the next chunk, the
   footer at [addr - 4] describes the previous one. Chunks exactly tile
   [0, top_addr) and the wilderness [top_addr, brk) has no tags, so both
   probes are guarded by the tiling invariant alone; no side maps of chunk
   records are needed. [req_sizes] (base -> requested payload) remains the
   liveness authority for wild/double-free detection, exactly as before. *)

type t = {
  config : config;
  space : Address_space.t;
  bins : Free_structure.t array;
  binmap : int array; (* occupancy bitmap: bit (i mod 62) of word (i / 62) *)
  req_sizes : Dmm_util.Int_int_table.t;
  metrics : Metrics.t;
  mutable top_addr : int;
  mutable top_size : int; (* wilderness chunk; 0 when absent *)
  min_chunk : int;
  n_small : int; (* same-size bins, below [small_bin_max] *)
  small_log : int; (* log2_ceil small_bin_max: the first range bin's *)
}

let n_large_bins = 18 (* log2 ranges from small_bin_max up to ~2^26 *)

let create ?(config = default_config) space =
  if
    config.granularity <= 0 || config.header_bytes < 0 || config.alignment <= 0
    || config.small_bin_max <= 0
  then invalid_arg "Lea.create: bad config";
  let min_chunk =
    Int.max 16 (Size.align_up (config.header_bytes + config.alignment) config.alignment)
  in
  let n_small = (config.small_bin_max - min_chunk) / config.alignment in
  let bins =
    Array.init (n_small + n_large_bins) (fun i ->
        if i < n_small then
          (* Same-size chunks: a doubly linked list gives O(1) unlinking. *)
          Free_structure.create Dmm_core.Decision.Doubly_linked_list
        else
          (* Range bins: a size-ordered tree gives cheap best fit. *)
          Free_structure.create Dmm_core.Decision.Size_ordered_tree)
  in
  {
    config;
    space;
    bins;
    binmap = Array.make ((Array.length bins + 61) / 62) 0;
    req_sizes = Dmm_util.Int_int_table.create ~size:256 ();
    metrics = Metrics.create ~probe:(Address_space.probe space) ();
    top_addr = 0;
    top_size = 0;
    min_chunk;
    n_small;
    small_log = Size.log2_ceil config.small_bin_max;
  }

let bin_index t gross =
  if gross < t.config.small_bin_max then (gross - t.min_chunk) / t.config.alignment
  else Int.min (t.n_small + (Size.log2_ceil gross - t.small_log)) (Array.length t.bins - 1)

let gross_of_request t payload =
  Int.max t.min_chunk (Size.align_up (payload + t.config.header_bytes) t.config.alignment)

(* Boundary tags: [size * 2 + used] at the chunk base and again in the last
   4 bytes (min_chunk >= 16 keeps the two words disjoint). *)
let set_tags t addr size used =
  let v = (size lsl 1) lor (if used then 1 else 0) in
  Address_space.arena_set32 t.space addr v;
  Address_space.arena_set32 t.space (addr + size - 4) v

let tag_size v = v asr 1
let tag_used v = v land 1 <> 0

let binmap_update t i =
  let w = i / 62 and bit = 1 lsl (i mod 62) in
  if Free_structure.cardinal t.bins.(i) > 0 then t.binmap.(w) <- t.binmap.(w) lor bit
  else t.binmap.(w) <- t.binmap.(w) land lnot bit

(* Index of the first non-empty bin >= [i], or -1: skip whole empty words,
   then isolate the lowest set bit (a power of two, so its index is one
   less than its [bit_length]). *)
let rec next_nonempty t i =
  let nbins = Array.length t.bins in
  if i >= nbins then -1
  else begin
    let w = i / 62 in
    let masked = t.binmap.(w) land ((-1) lsl (i mod 62)) land max_int in
    if masked <> 0 then (w * 62) + Size.bit_length (masked land -masked) - 1
    else next_nonempty t ((w + 1) * 62)
  end

let insert_bin t (b : Block.t) =
  b.status <- Block.Free;
  let i = bin_index t b.size in
  Free_structure.insert t.bins.(i) b;
  binmap_update t i;
  Metrics.add_ops t.metrics 1

(* Unlink the chunk at [addr]/[size] from its bin and return a record for
   it. Bins key doubly linked lists by address and trees by (size, addr),
   so a fresh record with the right coordinates names the stored one; a
   table from address to stored record, kept up on every insert and take,
   cost more time than the short address scan it saves. *)
let remove_bin t ~addr ~size =
  let b = Block.v ~addr ~size ~status:Block.Free ~run_id:0 in
  let i = bin_index t size in
  Free_structure.remove t.bins.(i) b;
  binmap_update t i;
  Metrics.add_ops t.metrics 1;
  b

(* Carve [gross] bytes from the bottom of the top chunk. *)
let carve_top t gross =
  assert (t.top_size >= gross);
  let addr = t.top_addr in
  t.top_addr <- t.top_addr + gross;
  t.top_size <- t.top_size - gross;
  set_tags t addr gross true;
  Metrics.add_ops t.metrics 1;
  Block.v ~addr ~size:gross ~status:Block.Used ~run_id:0

(* A tag holds [size * 2 + used] in 32 bits, so a chunk must stay below
   2^30 bytes. Chunks tile the heap, coalesced ones included, so bounding
   the heap's end bounds them all, and only growth pays for the check. *)
let max_heap = 1 lsl 30

let extend_top t need =
  let request = Size.align_up (Int.max need t.config.granularity) t.config.granularity in
  let heap_end = Address_space.brk t.space + request in
  if heap_end >= max_heap then
    invalid_arg
      (Printf.sprintf "Lea.alloc: a heap of %d bytes overflows the 32-bit boundary tag" heap_end);
  let base = Address_space.sbrk t.space request in
  Metrics.add_ops t.metrics 4;
  if t.top_size > 0 && t.top_addr + t.top_size = base then t.top_size <- t.top_size + request
  else begin
    t.top_addr <- base;
    t.top_size <- request
  end

(* Split the tail of a used block back into the bins when large enough. *)
let split_remainder t (b : Block.t) gross =
  let remainder = b.size - gross in
  if remainder >= t.min_chunk then begin
    let parent = b.size in
    b.size <- gross;
    let rem = Block.v ~addr:(Block.end_addr b) ~size:remainder ~status:Block.Free ~run_id:0 in
    set_tags t rem.addr remainder false;
    insert_bin t rem;
    Metrics.on_split t.metrics ~addr:b.addr ~parent ~taken:gross ~remainder
  end

(* Walking a run of empty bins charges 1 per bin visited plus 1 per empty
   tree bin probed (a [take] on an empty tree records one step). The
   fast path below skips those bins via the occupancy bitmap and settles
   the identical charge arithmetically; tree bins are the [i >= n_small]
   suffix, and every skipped bin is empty by construction. *)
let skipped_charge t ~from ~until =
  (until - from) + Int.max 0 (until - Int.max from t.n_small)

(* Probe on: each bin visit and each non-zero scan is its own Fit_scan
   event, so walk bin by bin exactly as the stream promises. The walks
   are top level with annotated ints, so a search allocates nothing. *)
let rec take_walk t (gross : int) (i : int) =
  if i >= Array.length t.bins then Block.none
  else begin
    Metrics.add_ops t.metrics 1;
    let fs = t.bins.(i) in
    let before = Free_structure.steps fs in
    let b = Free_structure.take fs Dmm_core.Decision.Best_fit gross in
    Metrics.add_ops t.metrics (Free_structure.steps fs - before);
    if b != Block.none then begin
      binmap_update t i;
      b
    end
    else take_walk t gross (i + 1)
  end

let rec take_skip t (gross : int) (i : int) (charge : int) =
  let j = next_nonempty t i in
  if j < 0 then begin
    Metrics.add_ops t.metrics (charge + skipped_charge t ~from:i ~until:(Array.length t.bins));
    Block.none
  end
  else begin
    let charge = charge + skipped_charge t ~from:i ~until:j + 1 in
    let fs = t.bins.(j) in
    let before = Free_structure.steps fs in
    let b = Free_structure.take fs Dmm_core.Decision.Best_fit gross in
    let charge = charge + (Free_structure.steps fs - before) in
    if b != Block.none then begin
      binmap_update t j;
      Metrics.add_ops t.metrics charge;
      b
    end
    else take_skip t gross (j + 1) charge
  end

(* The binned block chosen for [gross], or [Block.none]. *)
let take_from_bins t gross =
  if Metrics.probing t.metrics then take_walk t gross (bin_index t gross)
  else take_skip t gross (bin_index t gross) 0

let alloc t payload =
  if payload <= 0 then invalid_arg "Lea.alloc: non-positive size";
  let gross = gross_of_request t payload in
  let b = take_from_bins t gross in
  let block =
    if b != Block.none then begin
      b.status <- Block.Used;
      split_remainder t b gross;
      set_tags t b.addr b.size true;
      b
    end
    else begin
      if t.top_size < gross then extend_top t gross;
      carve_top t gross
    end
  in
  Dmm_util.Int_int_table.replace t.req_sizes block.Block.addr payload;
  let addr = block.Block.addr + t.config.header_bytes in
  Metrics.on_alloc t.metrics ~payload ~gross:block.Block.size ~tag:t.config.header_bytes ~addr;
  addr

(* Immediate bidirectional coalescing, dlmalloc-style, via boundary tags.
   Forward: chunks tile [0, top_addr), so a header exists at [end_addr b]
   iff that is below the wilderness. Backward: the previous chunk's footer
   sits at [addr - 4] whenever addr > 0. *)
let merge_neighbours t (b : Block.t) =
  let b = ref b in
  (let nxt = Block.end_addr !b in
   if nxt < t.top_addr then begin
     let v = Address_space.arena_get32 t.space nxt in
     if not (tag_used v) then begin
       let absorbed = tag_size v in
       ignore (remove_bin t ~addr:nxt ~size:absorbed);
       !b.size <- !b.size + absorbed;
       set_tags t !b.addr !b.size false;
       Metrics.on_coalesce t.metrics ~addr:!b.addr ~merged:!b.size ~absorbed
     end
   end);
  (if !b.Block.addr > 0 then begin
     let v = Address_space.arena_get32 t.space (!b.Block.addr - 4) in
     if not (tag_used v) then begin
       let psize = tag_size v in
       let merged = remove_bin t ~addr:(!b.Block.addr - psize) ~size:psize in
       let absorbed = !b.size in
       merged.size <- psize + absorbed;
       set_tags t merged.addr merged.size false;
       b := merged;
       Metrics.on_coalesce t.metrics ~addr:merged.addr ~merged:merged.size ~absorbed
     end
   end);
  !b

let maybe_trim t =
  if t.top_size >= t.config.trim_threshold then begin
    let keep = t.config.granularity in
    Address_space.trim t.space (t.top_addr + keep);
    t.top_size <- keep;
    Metrics.add_ops t.metrics 2
  end

let free t addr =
  let base = addr - t.config.header_bytes in
  let payload = Dmm_util.Int_int_table.take t.req_sizes base ~default:(-1) in
  if payload < 0 then raise (Allocator.Invalid_free addr)
  else begin
    Metrics.on_free t.metrics ~payload ~addr;
    let size = tag_size (Address_space.arena_get32 t.space base) in
    let b = Block.v ~addr:base ~size ~status:Block.Free ~run_id:0 in
    set_tags t base size false;
    let b = merge_neighbours t b in
    if Block.end_addr b = t.top_addr then begin
      (* The freed run touches the wilderness: absorb it into top. *)
      t.top_addr <- b.addr;
      t.top_size <- t.top_size + b.size;
      maybe_trim t
    end
    else insert_bin t b
  end

let current_footprint t = Address_space.brk t.space
let max_footprint t = Address_space.high_water t.space
let metrics t = Metrics.snapshot t.metrics
let top_size t = t.top_size

let binned_bytes t = Array.fold_left (fun acc fs -> acc + Free_structure.total_bytes fs) 0 t.bins

let breakdown t : Metrics.breakdown =
  let live_payload = ref 0 and tags = ref 0 and padding = ref 0 in
  Dmm_util.Int_int_table.iter
    (fun base payload ->
      let gross = tag_size (Address_space.arena_get32 t.space base) in
      live_payload := !live_payload + payload;
      tags := !tags + t.config.header_bytes;
      padding := !padding + (gross - t.config.header_bytes - payload))
    t.req_sizes;
  {
    Metrics.live_payload = !live_payload;
    tag_overhead = !tags;
    internal_padding = !padding;
    free_bytes = binned_bytes t + t.top_size;
    total_held = current_footprint t;
  }

let allocator t =
  {
    Allocator.name = "lea";
    alloc = (fun size -> alloc t size);
    free = (fun addr -> free t addr);
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> current_footprint t);
    max_footprint = (fun () -> max_footprint t);
    stats = (fun () -> metrics t);
    breakdown = (fun () -> breakdown t);
  }
