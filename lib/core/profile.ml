module Histogram = Dmm_util.Histogram
module Stats = Dmm_util.Stats
module Int_int_table = Dmm_util.Int_int_table

type phase_summary = {
  phase : int;
  allocs : int;
  frees : int;
  size_hist : Histogram.t;
  size_stats : Stats.t;
  lifetime_stats : Stats.t;
  peak_live_bytes : int;
  peak_live_blocks : int;
  lifo_frees : int;
}

type acc = {
  acc_phase : int;
  mutable acc_allocs : int;
  mutable acc_frees : int;
  acc_sizes : Int_int_table.t; (* request size -> allocations of that size *)
  acc_size_stats : Stats.t;
  acc_lifetime_stats : Stats.t;
  mutable acc_peak_live_bytes : int;
  mutable acc_peak_live_blocks : int;
  mutable acc_lifo_frees : int;
}

(* The live set is indexed by id in flat arrays, sized by [create]'s
   [capacity] and grown past it on demand: [sizes.(id)] is the live
   block's size, 0 when the id is not live, and [born.(id)] its birth
   sequence number. The LIFO stack holds (birth, id) pairs in two int
   arrays, most recent at [depth - 1]. An entry is stale once its block
   is freed or its id allocated again; staleness is permanent. *)
type t = {
  accs : (int, acc) Hashtbl.t;
  mutable cur : acc; (* the current phase's, or [no_acc] before its first event *)
  mutable sizes : int array;
  mutable born : int array;
  mutable stack_seq : int array;
  mutable stack_id : int array;
  mutable depth : int;
  mutable seq : int;
  mutable current_phase : int;
  mutable live_bytes : int;
  mutable live_blocks : int;
}

let new_acc phase =
  {
    acc_phase = phase;
    acc_allocs = 0;
    acc_frees = 0;
    acc_sizes = Int_int_table.create ();
    acc_size_stats = Stats.create ();
    acc_lifetime_stats = Stats.create ();
    acc_peak_live_bytes = 0;
    acc_peak_live_blocks = 0;
    acc_lifo_frees = 0;
  }

let no_acc = new_acc min_int

let create ?(capacity = 16) () =
  let ids = Int.max 16 capacity in
  let t =
    {
      accs = Hashtbl.create 8;
      cur = new_acc 0;
      sizes = Array.make ids 0;
      born = Array.make ids 0;
      stack_seq = Array.make 16 0;
      stack_id = Array.make 16 0;
      depth = 0;
      seq = 0;
      current_phase = 0;
      live_bytes = 0;
      live_blocks = 0;
    }
  in
  Hashtbl.replace t.accs 0 t.cur;
  t

let current_acc t =
  if t.cur == no_acc then begin
    let a = new_acc t.current_phase in
    Hashtbl.replace t.accs t.current_phase a;
    t.cur <- a
  end;
  t.cur

let observe_phase t p =
  t.current_phase <- p;
  t.cur <- (match Hashtbl.find_opt t.accs p with Some a -> a | None -> no_acc)

let grown a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_ids t id =
  let cap = max (2 * Array.length t.sizes) (id + 1) in
  t.sizes <- grown t.sizes cap;
  t.born <- grown t.born cap

let[@inline] stale t i =
  let id = t.stack_id.(i) in
  t.sizes.(id) = 0 || t.born.(id) <> t.stack_seq.(i)

(* Squeeze the stale entries out, keeping the others in order. A stale
   entry never becomes live again, so the stack's live entries, its top
   live entry and every later LIFO test stay as they were. *)
let compact t =
  let kept = ref 0 in
  for i = 0 to t.depth - 1 do
    if not (stale t i) then begin
      t.stack_seq.(!kept) <- t.stack_seq.(i);
      t.stack_id.(!kept) <- t.stack_id.(i);
      incr kept
    end
  done;
  t.depth <- !kept

(* A full stack is compacted first, and doubles only if that leaves it
   at least half full: a compaction then scans no more entries than the
   pushes since the last one made, and the capacity stays below four
   times the peak of live blocks (or at its first 16 slots). Without
   it, a trace that frees in FIFO order keeps nearly every allocation:
   its stale entries sit below live ones and never reach the top. *)
let push t seq id =
  if t.depth = Array.length t.stack_id then begin
    compact t;
    if 2 * t.depth >= Array.length t.stack_id then begin
      t.stack_seq <- grown t.stack_seq (2 * Array.length t.stack_seq);
      t.stack_id <- grown t.stack_id (2 * Array.length t.stack_id)
    end
  end;
  t.stack_seq.(t.depth) <- seq;
  t.stack_id.(t.depth) <- id;
  t.depth <- t.depth + 1

(* Drop stale entries from the top, so the top is the most recently
   allocated live block, in amortised O(1). *)
let rec drop_stale t =
  if t.depth > 0 && stale t (t.depth - 1) then begin
    t.depth <- t.depth - 1;
    drop_stale t
  end

let observe_alloc t ~id ~size =
  if size <= 0 then invalid_arg "Profile.observe_alloc: non-positive size";
  if id < 0 then invalid_arg "Profile.observe_alloc: negative id";
  if id >= Array.length t.sizes then grow_ids t id;
  if t.sizes.(id) > 0 then invalid_arg "Profile.observe_alloc: id already live";
  t.seq <- t.seq + 1;
  let a = current_acc t in
  a.acc_allocs <- a.acc_allocs + 1;
  Int_int_table.replace a.acc_sizes size (Int_int_table.find a.acc_sizes size ~default:0 + 1);
  Stats.add_int a.acc_size_stats size;
  t.sizes.(id) <- size;
  t.born.(id) <- t.seq;
  t.live_bytes <- t.live_bytes + size;
  t.live_blocks <- t.live_blocks + 1;
  push t t.seq id;
  if t.live_bytes > a.acc_peak_live_bytes then a.acc_peak_live_bytes <- t.live_bytes;
  if t.live_blocks > a.acc_peak_live_blocks then a.acc_peak_live_blocks <- t.live_blocks

let observe_free t ~id =
  if id < 0 || id >= Array.length t.sizes || t.sizes.(id) = 0 then
    invalid_arg "Profile.observe_free: id not live";
  t.seq <- t.seq + 1;
  let a = current_acc t in
  a.acc_frees <- a.acc_frees + 1;
  Stats.add_int a.acc_lifetime_stats (t.seq - t.born.(id));
  drop_stale t;
  if t.depth > 0 && t.stack_id.(t.depth - 1) = id then a.acc_lifo_frees <- a.acc_lifo_frees + 1;
  t.live_bytes <- t.live_bytes - t.sizes.(id);
  t.live_blocks <- t.live_blocks - 1;
  t.sizes.(id) <- 0

(* A summary is a snapshot: its histogram and statistics are copies, so
   later observations leave it unchanged. *)
let summary_of_acc a =
  let size_hist = Histogram.create () in
  Int_int_table.iter (fun size n -> Histogram.add_many size_hist size n) a.acc_sizes;
  {
    phase = a.acc_phase;
    allocs = a.acc_allocs;
    frees = a.acc_frees;
    size_hist;
    size_stats = Stats.copy a.acc_size_stats;
    lifetime_stats = Stats.copy a.acc_lifetime_stats;
    peak_live_bytes = a.acc_peak_live_bytes;
    peak_live_blocks = a.acc_peak_live_blocks;
    lifo_frees = a.acc_lifo_frees;
  }

let phases t =
  Hashtbl.fold (fun _ a acc -> summary_of_acc a :: acc) t.accs []
  |> List.sort (fun s1 s2 -> compare s1.phase s2.phase)

let phase_ids t = List.map (fun s -> s.phase) (phases t)

let total t =
  let ps = phases t in
  let merged =
    List.fold_left
      (fun acc s ->
        {
          phase = -1;
          allocs = acc.allocs + s.allocs;
          frees = acc.frees + s.frees;
          size_hist = Histogram.merge acc.size_hist s.size_hist;
          size_stats = Stats.merge acc.size_stats s.size_stats;
          lifetime_stats = Stats.merge acc.lifetime_stats s.lifetime_stats;
          peak_live_bytes = max acc.peak_live_bytes s.peak_live_bytes;
          peak_live_blocks = max acc.peak_live_blocks s.peak_live_blocks;
          lifo_frees = acc.lifo_frees + s.lifo_frees;
        })
      (summary_of_acc (new_acc (-1)))
      ps
  in
  merged

let leaked t = t.live_blocks

let size_variability s = Stats.coefficient_of_variation s.size_stats

let distinct_sizes s = Histogram.distinct s.size_hist

let dominant_sizes s k = Histogram.most_frequent s.size_hist k

let stack_likeness s = if s.frees = 0 then 0.0 else float_of_int s.lifo_frees /. float_of_int s.frees

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>phase=%d allocs=%d frees=%d distinct_sizes=%d size_cv=%.2f@,\
     peak_live=%dB (%d blocks) stack_likeness=%.2f@,\
     sizes: %a@]"
    s.phase s.allocs s.frees (distinct_sizes s) (size_variability s) s.peak_live_bytes
    s.peak_live_blocks (stack_likeness s) Stats.pp s.size_stats
