(* Span-matching lifetime profiler.

   Pairs every [Alloc] with the [Free] at the same payload address into a
   span and aggregates log-bucketed lifetime histograms (clock ticks
   between birth and death) per power-of-two size class and per logical
   phase. Defective streams — a free without a matching alloc, a
   double-free, an alloc landing on a still-live address — never raise:
   each such event is counted in the [unmatched] record and the affected
   span is abandoned, so sanitizer-defective streams still profile. *)

module Int_int_table = Dmm_util.Int_int_table
module Size = Dmm_util.Size

type span = {
  addr : int;
  payload : int;
  gross : int;
  born_clock : int;
  born_phase : int;
  freed_clock : int;
  freed_phase : int;
}

type unmatched = {
  free_without_alloc : int;
      (* frees (or double-frees) whose address held no live span *)
  realloc_over_live : int; (* allocs landing on a still-live address *)
}

type class_row = {
  size_class : int;
  spans : int;
  live : int;
  leaked_bytes : int;
  lifetimes : Log_hist.t;
}

type phase_row = {
  phase : int;
  spans : int; (* spans born in this phase, completed or not *)
  contained : int; (* freed while this phase was still current *)
  escaped : int; (* freed after a later phase marker *)
  leaked : int; (* still live at the end of the stream *)
  lifetimes : Log_hist.t; (* completed spans born in this phase *)
}

(* One phase's spans as [dmm profile] prints them, with nothing mutable. *)
type phase_summary = {
  s_phase : int;
  s_spans : int;
  s_contained : int;
  s_escaped : int;
  s_leaked : int;
  s_p50_lifetime : int;
  s_p99_lifetime : int;
  s_max_lifetime : int;
}

type cell = {
  c_key : int; (* the size class or phase id *)
  mutable c_spans : int;
  mutable c_contained : int;
  mutable c_escaped : int;
  c_hist : Log_hist.t;
}

let new_cell key =
  { c_key = key; c_spans = 0; c_contained = 0; c_escaped = 0; c_hist = Log_hist.create () }

(* Stands for a size class with no cell yet; never counted into. *)
let no_cell = new_cell 0

(* Size classes by log2: [Size.pow2_class] is 2^i for i in 0..61, or
   [max_int] above 2^61, which takes index 62. *)
let class_count = 63

let class_index gross =
  if gross <= 1 then 0 else if gross > 1 lsl 61 then class_count - 1 else Size.bit_length (gross - 1)

(* The live spans are a flat table: [slot_of] maps a payload address to a
   slot of the four span arrays, and freed slots are recycled through
   [born]. A span's phase is kept as the index of its phase's cell. *)
type t = {
  slot_of : Int_int_table.t;
  mutable payload : int array;
  mutable gross : int array;
  mutable born : int array;
  mutable born_phase : int array;
  mutable free_slot : int; (* -1: none recycled *)
  mutable next_slot : int;
  mutable live : int; (* slots in use *)
  classes : cell array; (* by [class_index]; [no_cell] until a span opens *)
  mutable phases : cell array; (* in order of first span *)
  mutable phase_count : int;
  phase_index : (int, int) Hashtbl.t; (* phase id -> index in [phases] *)
  all : Log_hist.t;
  mutable phase : int;
  mutable phase_cell : int; (* index of the current phase's cell, -1 if it has none *)
  mutable completed : int;
  mutable free_without_alloc : int;
  mutable realloc_over_live : int;
  on_span : (span -> unit) option;
}

let initial_slots = 64

let create ?on_span () =
  {
    slot_of = Int_int_table.create ~size:initial_slots ();
    payload = Array.make initial_slots 0;
    gross = Array.make initial_slots 0;
    born = Array.make initial_slots 0;
    born_phase = Array.make initial_slots 0;
    free_slot = -1;
    next_slot = 0;
    live = 0;
    classes = Array.make class_count no_cell;
    phases = [||];
    phase_count = 0;
    phase_index = Hashtbl.create 8;
    all = Log_hist.create ();
    phase = 0;
    phase_cell = -1;
    completed = 0;
    free_without_alloc = 0;
    realloc_over_live = 0;
    on_span;
  }

let grow_slots t =
  let n = 2 * Array.length t.payload in
  let extend a = Array.append a (Array.make (n - Array.length a) 0) in
  t.payload <- extend t.payload;
  t.gross <- extend t.gross;
  t.born <- extend t.born;
  t.born_phase <- extend t.born_phase

let new_slot t =
  t.live <- t.live + 1;
  if t.free_slot >= 0 then begin
    let s = t.free_slot in
    t.free_slot <- t.born.(s);
    s
  end
  else begin
    if t.next_slot = Array.length t.payload then grow_slots t;
    let s = t.next_slot in
    t.next_slot <- s + 1;
    s
  end

(* The current phase's cell, made when its first span opens. *)
let current_phase_cell t =
  if t.phase_cell < 0 then begin
    let i = t.phase_count in
    if i = Array.length t.phases then
      t.phases <- Array.append t.phases (Array.make (max 4 i) no_cell);
    t.phases.(i) <- new_cell t.phase;
    t.phase_count <- i + 1;
    Hashtbl.replace t.phase_index t.phase i;
    t.phase_cell <- i
  end;
  t.phase_cell

let class_cell t gross =
  let i = class_index gross in
  let c = t.classes.(i) in
  if c != no_cell then c
  else begin
    let c = new_cell (Size.pow2_class gross) in
    t.classes.(i) <- c;
    c
  end

let on_event t clock (e : Event.t) =
  match e with
  | Event.Phase p ->
    t.phase <- p;
    t.phase_cell <- (try Hashtbl.find t.phase_index p with Not_found -> -1)
  | Event.Alloc { payload; gross; addr; _ } ->
    (* An alloc over a live span means the stream lost the intervening
       free (or the allocator is broken — the sanitizer's business, not
       ours): abandon the old span uncounted and start afresh in its
       slot. *)
    let s = Int_int_table.find t.slot_of addr ~default:(-1) in
    let s =
      if s >= 0 then begin
        t.realloc_over_live <- t.realloc_over_live + 1;
        s
      end
      else begin
        let s = new_slot t in
        Int_int_table.replace t.slot_of addr s;
        s
      end
    in
    let ph = current_phase_cell t in
    t.payload.(s) <- payload;
    t.gross.(s) <- gross;
    t.born.(s) <- clock;
    t.born_phase.(s) <- ph;
    let c = class_cell t gross in
    c.c_spans <- c.c_spans + 1;
    let p = t.phases.(ph) in
    p.c_spans <- p.c_spans + 1
  | Event.Free { addr; _ } ->
    let s = Int_int_table.take t.slot_of addr ~default:(-1) in
    if s < 0 then t.free_without_alloc <- t.free_without_alloc + 1
    else begin
      let born = t.born.(s) and ph = t.born_phase.(s) in
      t.born.(s) <- t.free_slot;
      t.free_slot <- s;
      t.live <- t.live - 1;
      t.completed <- t.completed + 1;
      let lifetime = clock - born in
      Log_hist.record t.all lifetime;
      let c = t.classes.(class_index t.gross.(s)) in
      Log_hist.record c.c_hist lifetime;
      let p = t.phases.(ph) in
      Log_hist.record p.c_hist lifetime;
      if ph = t.phase_cell then begin
        c.c_contained <- c.c_contained + 1;
        p.c_contained <- p.c_contained + 1
      end
      else begin
        c.c_escaped <- c.c_escaped + 1;
        p.c_escaped <- p.c_escaped + 1
      end;
      match t.on_span with
      | None -> ()
      | Some f ->
        f
          {
            addr;
            payload = t.payload.(s);
            gross = t.gross.(s);
            born_clock = born;
            born_phase = p.c_key;
            freed_clock = clock;
            freed_phase = t.phase;
          }
    end
  | Event.Split _ | Event.Coalesce _ | Event.Sbrk _ | Event.Trim _ | Event.Fit_scan _ -> ()

let attach probe t = Probe.attach probe (on_event t)

let spans t = t.completed
let live_spans t = t.live
let lifetimes t = t.all
let unmatched t =
  { free_without_alloc = t.free_without_alloc; realloc_over_live = t.realloc_over_live }

(* Leaked bytes are sums of stream sizes, so they saturate at [max_int]
   instead of wrapping; a negative gross size counts as 0, as
   [Log_hist.record] clamps it. *)
let add_bytes acc gross = Size.sat_add acc (max 0 gross)

let leaked_bytes t = Int_int_table.fold (fun _ s acc -> add_bytes acc t.gross.(s)) t.slot_of 0

(* Live spans folded into per-index leak counts: (spans, gross bytes) for
   each of [n] indices, [index_of] picking a slot's. *)
let leaks t n index_of =
  let count = Array.make n 0 and bytes = Array.make n 0 in
  Int_int_table.iter
    (fun _ s ->
      let i = index_of s in
      count.(i) <- count.(i) + 1;
      bytes.(i) <- add_bytes bytes.(i) t.gross.(s))
    t.slot_of;
  (count, bytes)

(* Only a class or phase some span opened in has a row. *)
let class_rows t =
  let live, leaked = leaks t class_count (fun s -> class_index t.gross.(s)) in
  List.filter_map
    (fun i ->
      let c = t.classes.(i) in
      if c == no_cell then None
      else
        Some
          {
            size_class = c.c_key;
            spans = c.c_spans;
            live = live.(i);
            leaked_bytes = leaked.(i);
            lifetimes = c.c_hist;
          })
    (List.init class_count Fun.id)

let phase_rows t =
  let leaked, _ = leaks t t.phase_count (fun s -> t.born_phase.(s)) in
  List.init t.phase_count (fun i ->
      let c = t.phases.(i) in
      ({
         phase = c.c_key;
         spans = c.c_spans;
         contained = c.c_contained;
         escaped = c.c_escaped;
         leaked = leaked.(i);
         lifetimes = c.c_hist;
       }
        : phase_row))
  |> List.sort (fun (a : phase_row) (b : phase_row) -> compare a.phase b.phase)

let phase_summaries t =
  List.map
    (fun (r : phase_row) ->
      {
        s_phase = r.phase;
        s_spans = r.spans;
        s_contained = r.contained;
        s_escaped = r.escaped;
        s_leaked = r.leaked;
        s_p50_lifetime = Log_hist.percentile r.lifetimes 0.5;
        s_p99_lifetime = Log_hist.percentile r.lifetimes 0.99;
        s_max_lifetime = Log_hist.max_value r.lifetimes;
      })
    (phase_rows t)

let pp_phase_summary ppf s =
  Format.fprintf ppf
    "phase %d: spans=%d contained=%d escaped=%d leaked=%d p50=%d p99=%d max=%d" s.s_phase
    s.s_spans s.s_contained s.s_escaped s.s_leaked s.s_p50_lifetime s.s_p99_lifetime
    s.s_max_lifetime
