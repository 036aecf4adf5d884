(* Event sink that publishes the allocation stream into a {!Registry}.

   A naive version would pay several atomic RMWs per event — measurably
   slower than bare mutable-field counters ([Dmm_core.Metrics.on_event])
   on fit-scan-heavy streams. Instead the hot path increments plain local
   fields (the same cost) and [flush] publishes the accumulated deltas
   with one atomic add per counter, automatically every [flush_every]
   events and explicitly before the registry is read. The registry is therefore
   near-live (at most [flush_every] events stale) while the per-event
   overhead stays amortised-constant. *)

type t = {
  c_events : Registry.counter;
  c_allocs : Registry.counter;
  c_frees : Registry.counter;
  c_splits : Registry.counter;
  c_coalesces : Registry.counter;
  c_fit_scans : Registry.counter;
  c_sbrks : Registry.counter;
  c_trims : Registry.counter;
  c_phases : Registry.counter;
  c_alloc_bytes : Registry.counter;
  c_freed_bytes : Registry.counter;
  g_footprint : Registry.gauge;
  g_peak_footprint : Registry.gauge;
  (* Deltas since the last flush. *)
  mutable d_events : int;
  mutable d_allocs : int;
  mutable d_frees : int;
  mutable d_splits : int;
  mutable d_coalesces : int;
  mutable d_fit_scans : int;
  mutable d_sbrks : int;
  mutable d_trims : int;
  mutable d_phases : int;
  mutable d_alloc_bytes : int;
  mutable d_freed_bytes : int;
  mutable cur_footprint : int;
  mutable peak_footprint : int;
  flush_every : int;
}

let create ?(flush_every = 1024) registry =
  if flush_every < 1 then invalid_arg "Registry_sink.create: flush_every must be >= 1";
  let c name help = Registry.counter ~help registry name in
  {
    c_events = c "dmm_events_total" "Events seen on the probe";
    c_allocs = c "dmm_allocs_total" "Alloc events";
    c_frees = c "dmm_frees_total" "Free events";
    c_splits = c "dmm_splits_total" "Split events";
    c_coalesces = c "dmm_coalesces_total" "Coalesce events";
    c_fit_scans = c "dmm_fit_scans_total" "Fit_scan events";
    c_sbrks = c "dmm_sbrks_total" "Sbrk events";
    c_trims = c "dmm_trims_total" "Trim events";
    c_phases = c "dmm_phases_total" "Phase events";
    c_alloc_bytes = c "dmm_alloc_bytes_total" "Gross bytes allocated";
    c_freed_bytes = c "dmm_freed_bytes_total" "Payload bytes freed";
    g_footprint =
      Registry.gauge ~help:"Current footprint in bytes" registry "dmm_footprint_bytes";
    g_peak_footprint =
      Registry.gauge ~help:"Peak footprint in bytes" registry "dmm_peak_footprint_bytes";
    d_events = 0;
    d_allocs = 0;
    d_frees = 0;
    d_splits = 0;
    d_coalesces = 0;
    d_fit_scans = 0;
    d_sbrks = 0;
    d_trims = 0;
    d_phases = 0;
    d_alloc_bytes = 0;
    d_freed_bytes = 0;
    cur_footprint = 0;
    peak_footprint = 0;
    flush_every = flush_every;
  }

let flush t =
  (* Deltas are never negative on a faithful stream; a defective one's
     negative sizes (or a byte sum wrapped past [max_int]) are dropped
     rather than raised on. *)
  let add c d = if d > 0 then Registry.add c d in
  add t.c_events t.d_events;
  add t.c_allocs t.d_allocs;
  add t.c_frees t.d_frees;
  add t.c_splits t.d_splits;
  add t.c_coalesces t.d_coalesces;
  add t.c_fit_scans t.d_fit_scans;
  add t.c_sbrks t.d_sbrks;
  add t.c_trims t.d_trims;
  add t.c_phases t.d_phases;
  add t.c_alloc_bytes t.d_alloc_bytes;
  add t.c_freed_bytes t.d_freed_bytes;
  t.d_events <- 0;
  t.d_allocs <- 0;
  t.d_frees <- 0;
  t.d_splits <- 0;
  t.d_coalesces <- 0;
  t.d_fit_scans <- 0;
  t.d_sbrks <- 0;
  t.d_trims <- 0;
  t.d_phases <- 0;
  t.d_alloc_bytes <- 0;
  t.d_freed_bytes <- 0;
  Registry.set t.g_footprint t.cur_footprint;
  Registry.gauge_max t.g_peak_footprint t.peak_footprint

let on_event t _clock (e : Event.t) =
  t.d_events <- t.d_events + 1;
  (match e with
  | Event.Alloc { gross; _ } ->
    t.d_allocs <- t.d_allocs + 1;
    t.d_alloc_bytes <- t.d_alloc_bytes + gross
  | Event.Free { payload; _ } ->
    t.d_frees <- t.d_frees + 1;
    t.d_freed_bytes <- t.d_freed_bytes + payload
  | Event.Split _ -> t.d_splits <- t.d_splits + 1
  | Event.Coalesce _ -> t.d_coalesces <- t.d_coalesces + 1
  | Event.Fit_scan _ -> t.d_fit_scans <- t.d_fit_scans + 1
  | Event.Sbrk { bytes; _ } ->
    t.d_sbrks <- t.d_sbrks + 1;
    t.cur_footprint <- t.cur_footprint + bytes;
    if t.cur_footprint > t.peak_footprint then t.peak_footprint <- t.cur_footprint
  | Event.Trim { bytes; _ } ->
    t.d_trims <- t.d_trims + 1;
    t.cur_footprint <- t.cur_footprint - bytes
  | Event.Phase _ -> t.d_phases <- t.d_phases + 1);
  if t.d_events >= t.flush_every then flush t

let attach probe t = Probe.attach probe (on_event t)
