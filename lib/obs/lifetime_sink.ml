(* Span-matching lifetime profiler.

   Pairs every [Alloc] with the [Free] at the same payload address into a
   span and aggregates log-bucketed lifetime histograms (clock ticks
   between birth and death) per power-of-two size class and per logical
   phase. Defective streams — a free without a matching alloc, a
   double-free, an alloc landing on a still-live address — never raise:
   each such event is counted in the [unmatched] record and the affected
   span is abandoned, so sanitizer-defective streams still profile. *)

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

type live = { l_payload : int; l_gross : int; l_clock : int; l_phase : int }

type cell = {
  mutable c_spans : int;
  mutable c_contained : int;
  mutable c_escaped : int;
  c_hist : Log_hist.t;
}

type t = {
  by_addr : (int, live) Hashtbl.t;
  classes : (int, cell) Hashtbl.t;
  phases : (int, cell) Hashtbl.t;
  all : Log_hist.t;
  mutable phase : int;
  mutable last_clock : int;
  mutable completed : int;
  mutable free_without_alloc : int;
  mutable realloc_over_live : int;
  on_span : (span -> unit) option;
}

let create ?on_span ?(capacity = 256) () =
  {
    by_addr = Hashtbl.create (max 16 capacity);
    classes = Hashtbl.create 32;
    phases = Hashtbl.create 8;
    all = Log_hist.create ();
    phase = 0;
    last_clock = 0;
    completed = 0;
    free_without_alloc = 0;
    realloc_over_live = 0;
    on_span;
  }

let cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = { c_spans = 0; c_contained = 0; c_escaped = 0; c_hist = Log_hist.create () } in
    Hashtbl.replace tbl key c;
    c

let open_span t (l : live) addr =
  Hashtbl.replace t.by_addr addr l;
  let c = cell t.classes (Dmm_util.Size.pow2_class l.l_gross) in
  c.c_spans <- c.c_spans + 1;
  let p = cell t.phases l.l_phase in
  p.c_spans <- p.c_spans + 1

let on_event t clock (e : Event.t) =
  t.last_clock <- clock;
  match e with
  | Event.Phase p -> t.phase <- p
  | Event.Alloc { payload; gross; addr; _ } ->
    (* An alloc over a live span means the stream lost the intervening
       free (or the allocator is broken — the sanitizer's business, not
       ours): abandon the old span uncounted and start afresh. *)
    if Hashtbl.mem t.by_addr addr then begin
      t.realloc_over_live <- t.realloc_over_live + 1;
      Hashtbl.remove t.by_addr addr
    end;
    open_span t { l_payload = payload; l_gross = gross; l_clock = clock; l_phase = t.phase } addr
  | Event.Free { addr; _ } -> (
    match Hashtbl.find_opt t.by_addr addr with
    | None -> t.free_without_alloc <- t.free_without_alloc + 1
    | Some l ->
      Hashtbl.remove t.by_addr addr;
      t.completed <- t.completed + 1;
      let lifetime = clock - l.l_clock in
      Log_hist.record t.all lifetime;
      let c = cell t.classes (Dmm_util.Size.pow2_class l.l_gross) in
      Log_hist.record c.c_hist lifetime;
      let p = cell t.phases l.l_phase in
      Log_hist.record p.c_hist lifetime;
      if l.l_phase = t.phase then begin
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
            payload = l.l_payload;
            gross = l.l_gross;
            born_clock = l.l_clock;
            born_phase = l.l_phase;
            freed_clock = clock;
            freed_phase = t.phase;
          })
  | Event.Split _ | Event.Coalesce _ | Event.Sbrk _ | Event.Trim _ | Event.Fit_scan _
  | Event.Ptr_write _ | Event.Root_add _ | Event.Root_remove _ ->
    ()

let attach probe t = Probe.attach probe (on_event t)

let spans t = t.completed
let live_spans t = Hashtbl.length t.by_addr
let lifetimes t = t.all
let unmatched t =
  { free_without_alloc = t.free_without_alloc; realloc_over_live = t.realloc_over_live }

let leaked_bytes t = Hashtbl.fold (fun _ l acc -> acc + l.l_gross) t.by_addr 0

(* Live spans folded into per-key leak counts; [key_of] selects the axis. *)
let leaks t key_of =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (l : live) ->
      let k = key_of l in
      let n, b = match Hashtbl.find_opt tbl k with Some nb -> nb | None -> (0, 0) in
      Hashtbl.replace tbl k (n + 1, b + l.l_gross))
    t.by_addr;
  tbl

let class_rows t =
  let leak = leaks t (fun l -> Dmm_util.Size.pow2_class l.l_gross) in
  Hashtbl.fold
    (fun size_class (c : cell) acc ->
      let live, leaked_bytes =
        match Hashtbl.find_opt leak size_class with Some nb -> nb | None -> (0, 0)
      in
      { size_class; spans = c.c_spans; live; leaked_bytes; lifetimes = c.c_hist } :: acc)
    t.classes []
  |> List.sort (fun a b -> compare a.size_class b.size_class)

let phase_rows t =
  let leak = leaks t (fun l -> l.l_phase) in
  (* A phase can leak without completing anything; make sure it has a row. *)
  Hashtbl.iter (fun p _ -> ignore (cell t.phases p)) leak;
  Hashtbl.fold
    (fun phase (c : cell) acc ->
      let leaked = match Hashtbl.find_opt leak phase with Some (n, _) -> n | None -> 0 in
      ({
         phase;
         spans = c.c_spans;
         contained = c.c_contained;
         escaped = c.c_escaped;
         leaked;
         lifetimes = c.c_hist;
       }
        : phase_row)
      :: acc)
    t.phases []
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
