module Registry = Dmm_obs.Registry
module Registry_sink = Dmm_obs.Registry_sink
module Hist_sink = Dmm_obs.Hist_sink
module Lifetime_sink = Dmm_obs.Lifetime_sink
module Span = Dmm_obs.Span
module Clock = Dmm_obs.Clock
module Stream = Dmm_check.Stream
module Sanitizer = Dmm_check.Sanitizer

type t = {
  registry : Registry.t;
  started : float;
  streams_total : Registry.counter;
  errors_total : Registry.counter;
  diags_total : Registry.counter;
  stalls_total : Registry.counter;
  bytes_total : Registry.counter;
  events_total : Registry.counter;
  active : Registry.gauge;
  h_request : Registry.histogram;
  h_gross : Registry.histogram;
  h_fit : Registry.histogram;
  h_lifetime : Registry.histogram;
  h_wait : Registry.histogram;
  h_stream : Registry.histogram;
  h_decode : Registry.histogram;
  h_feed : Registry.histogram;
  mutable shard_depth_g : Registry.gauge array;
  mutable slo_err : float;
  mutable slo_p99_us : int;
}

let create registry =
  {
    registry;
    started = Clock.now_s ();
    streams_total =
      Registry.counter ~help:"Streams accepted by the ingest daemon" registry
        "dmm_ingest_streams_total";
    errors_total =
      Registry.counter ~help:"Streams that died mid-decode (malformed or corrupt)"
        registry "dmm_ingest_errors_total";
    diags_total =
      Registry.counter ~help:"Sanitizer diagnostics across all finished streams"
        registry "dmm_ingest_diagnostics_total";
    stalls_total =
      Registry.counter
        ~help:"Watchdog detections of an ingest shard whose queue stopped draining"
        registry "dmm_ingest_stalls_total";
    bytes_total =
      Registry.counter ~help:"Raw bytes received across all ingested streams" registry
        "dmm_ingest_bytes_total";
    (* Same handle [Registry_sink] publishes into; the help string must
       match its registration so whichever side registers first wins
       without disagreeing. *)
    events_total =
      Registry.counter ~help:"Events seen on the probe" registry "dmm_events_total";
    active =
      Registry.gauge ~help:"Streams currently being ingested" registry
        "dmm_ingest_active_streams";
    h_request =
      Registry.histogram ~help:"Requested payload sizes" registry
        "dmm_request_size_bytes";
    h_gross =
      Registry.histogram ~help:"Gross block sizes" registry "dmm_gross_size_bytes";
    h_fit =
      Registry.histogram ~help:"Free-list steps per fit scan" registry
        "dmm_fit_scan_steps";
    h_lifetime =
      Registry.histogram ~help:"Completed allocation-span lifetimes in clock ticks"
        registry "dmm_span_lifetime_ticks";
    h_wait =
      Registry.histogram ~help:"Accept-queue wait per connection in microseconds"
        registry "dmm_ingest_queue_wait_us";
    h_stream =
      Registry.histogram ~help:"End-to-end per-stream ingest latency in microseconds"
        registry "dmm_ingest_stream_us";
    h_decode =
      Registry.histogram ~help:"Per-stream decode time in microseconds" registry
        "dmm_ingest_decode_us";
    h_feed =
      Registry.histogram ~help:"Per-stream sanitize-and-sink time in microseconds"
        registry "dmm_ingest_feed_us";
    shard_depth_g = [||];
    slo_err = 0.05;
    slo_p99_us = 0;
  }

let registry t = t.registry
let add_bytes t n = if n > 0 then Registry.add t.bytes_total n

(* --- shard telemetry -------------------------------------------------------
   One labelled depth gauge per worker shard; the daemon bumps them as
   connections queue and drain, so /metrics and /statusz show where
   backpressure sits. *)

let set_shards t n =
  t.shard_depth_g <-
    Array.init n (fun i ->
        Registry.gauge ~help:"Connections queued per ingest shard" t.registry
          (Printf.sprintf "dmm_ingest_queue_depth{shard=\"%d\"}" i))

let shard_count t = Array.length t.shard_depth_g

let shard_enqueue t i = Registry.gauge_add t.shard_depth_g.(i) 1

let shard_dequeue t i ~wait_us =
  Registry.gauge_add t.shard_depth_g.(i) (-1);
  Registry.observe t.h_wait wait_us

let shard_depth t i = Registry.gauge_value t.shard_depth_g.(i)
let note_stall t = Registry.incr t.stalls_total

(* --- health / SLO ----------------------------------------------------------
   The gate is recomputed per probe from the live counters; degraded is
   a verdict, not a latch, so a daemon that recovers reads healthy
   again. Error rate is checked before p99 — rate is exact arithmetic
   on counters while p99 depends on wall-clock timings, so the message
   for a deterministic workload stays deterministic. *)

let set_slo t ?max_error_rate ?max_p99_us () =
  (match max_error_rate with
  | Some r ->
    if r < 0.0 || r > 1.0 then invalid_arg "Ingest.set_slo: error rate out of [0,1]";
    t.slo_err <- r
  | None -> ());
  match max_p99_us with
  | Some us ->
    if us < 0 then invalid_arg "Ingest.set_slo: negative p99 bound";
    t.slo_p99_us <- us
  | None -> ()

type health = Healthy | Degraded of string

let error_rate t =
  let streams = Registry.value t.streams_total in
  if streams = 0 then 0.0
  else float_of_int (Registry.value t.errors_total) /. float_of_int streams

let health t =
  let rate = error_rate t in
  if Registry.value t.streams_total > 0 && rate > t.slo_err then
    Degraded
      (Printf.sprintf "error rate %.1f%% exceeds SLO %.1f%%" (100.0 *. rate)
         (100.0 *. t.slo_err))
  else begin
    let p99 = Registry.hist_percentile t.h_stream 0.99 in
    if t.slo_p99_us > 0 && p99 > t.slo_p99_us then
      Degraded
        (Printf.sprintf "ingest p99 %dus exceeds SLO %dus" p99 t.slo_p99_us)
    else Healthy
  end

let uptime_s t = Clock.now_s () -. t.started

(* Flat JSON, hand-renderable and hand-parseable ([dmm top] reads it
   back with a field scanner): scalars only, except the per-shard depth
   array. *)
let status_json t =
  let b = Buffer.create 512 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let status, reason =
    match health t with Healthy -> ("ok", "") | Degraded why -> ("degraded", why)
  in
  bpf "{\"status\":\"%s\"" status;
  if reason <> "" then bpf ",\"reason\":\"%s\"" reason;
  bpf ",\"uptime_s\":%.3f" (uptime_s t);
  bpf ",\"streams_total\":%d" (Registry.value t.streams_total);
  bpf ",\"active_streams\":%d" (Registry.gauge_value t.active);
  bpf ",\"errors_total\":%d" (Registry.value t.errors_total);
  bpf ",\"error_rate\":%.4f" (error_rate t);
  bpf ",\"diagnostics_total\":%d" (Registry.value t.diags_total);
  bpf ",\"events_total\":%d" (Registry.value t.events_total);
  bpf ",\"bytes_total\":%d" (Registry.value t.bytes_total);
  bpf ",\"stalls_total\":%d" (Registry.value t.stalls_total);
  bpf ",\"shards\":%d" (shard_count t);
  bpf ",\"queue_depths\":[%s]"
    (String.concat ","
       (Array.to_list (Array.map (fun g -> string_of_int (Registry.gauge_value g))
          t.shard_depth_g)));
  bpf ",\"queue_wait_p99_us\":%d" (Registry.hist_percentile t.h_wait 0.99);
  bpf ",\"ingest_p50_us\":%d" (Registry.hist_percentile t.h_stream 0.5);
  bpf ",\"ingest_p99_us\":%d" (Registry.hist_percentile t.h_stream 0.99);
  bpf ",\"ingest_p999_us\":%d" (Registry.hist_percentile t.h_stream 0.999);
  bpf "}";
  Buffer.contents b

(* --- per-stream pipeline --------------------------------------------------- *)

type pipeline = {
  ctx : t;
  san : Sanitizer.incremental;
  reg_sink : Registry_sink.t;
  hist : Hist_sink.t;
  life : Lifetime_sink.t;
  mutable p_events : int;
}

type summary = {
  report : Sanitizer.report;
  spans : int;
  live_spans : int;
  leaked_bytes : int;
}

let stream ctx =
  Registry.incr ctx.streams_total;
  Registry.gauge_add ctx.active 1;
  {
    ctx;
    san = Sanitizer.start ();
    reg_sink = Registry_sink.create ctx.registry;
    hist = Hist_sink.create ();
    life = Lifetime_sink.create ();
    p_events = 0;
  }

let feed p ({ Stream.clock; event } as entry) =
  Sanitizer.feed p.san entry;
  Registry_sink.on_event p.reg_sink clock event;
  Hist_sink.on_event p.hist clock event;
  Lifetime_sink.on_event p.life clock event;
  p.p_events <- p.p_events + 1

(* Publish the per-stream buffers into the shared registry — the only
   cross-domain step, all atomic adds. *)
let publish p =
  Registry_sink.flush p.reg_sink;
  Registry.merge_log_hist p.ctx.h_request (Hist_sink.request p.hist);
  Registry.merge_log_hist p.ctx.h_gross (Hist_sink.gross p.hist);
  Registry.merge_log_hist p.ctx.h_fit (Hist_sink.fit_steps p.hist);
  Registry.merge_log_hist p.ctx.h_lifetime (Lifetime_sink.lifetimes p.life);
  Registry.gauge_add p.ctx.active (-1)

let finish p =
  publish p;
  let report = Sanitizer.finalize p.san in
  Registry.add p.ctx.diags_total (List.length report.Sanitizer.diags);
  {
    report;
    spans = Lifetime_sink.spans p.life;
    live_spans = Lifetime_sink.live_spans p.life;
    leaked_bytes = Lifetime_sink.leaked_bytes p.life;
  }

let fail p =
  publish p;
  Registry.incr p.ctx.errors_total

let run_source ctx src =
  let p = stream ctx in
  match Stream.iter_source src ~f:(fun e -> feed p e) with
  | Ok _ -> Ok (finish p)
  | Error _ as e ->
    fail p;
    e

(* --- observed driver -------------------------------------------------------
   The daemon's hot loop: same pipeline as [run_source], but decode and
   feed run in batches with their wall time split out, so each finished
   stream lands one observation in the decode/feed/stream histograms
   and (when a tracer is ambient) three child spans — decode, feed,
   finalize — under the caller's connection span. Decode time is laid
   before feed time on the span track: the two phases actually
   interleave per batch, and serialising the aggregates is what keeps
   the trace readable without per-batch span spam. *)

type stage_stats = {
  st_events : int;
  st_decode_us : int;
  st_feed_us : int;
  st_total_us : int;
}

(* The hot loop is byte-for-byte the same shape as [run_source] —
   next_entry, feed, repeat — because anything extra per event is a tax
   every observed stream pays. The decode/feed split comes from
   sampling instead: every [sample]-th entry is timed individually and
   the averages scale up to the whole stream, so only one entry in
   [sample] pays for its three clock readings. *)
let run_source_observed ?(sample = 512) ctx src =
  let sample = max 1 sample in
  let p = stream ctx in
  let span_t0 = Span.ambient_now_us () in
  let t0 = Clock.now_s () in
  let d_samp = ref 0.0 and f_samp = ref 0.0 and samples = ref 0 in
  let countdown = ref 0 in
  let rec loop () =
    if !countdown <> 0 then begin
      decr countdown;
      match Stream.next_entry src with
      | None -> ()
      | Some e ->
        feed p e;
        loop ()
    end
    else begin
      countdown := sample - 1;
      let a = Clock.now_s () in
      match Stream.next_entry src with
      | None -> ()
      | Some e ->
        let b = Clock.now_s () in
        feed p e;
        d_samp := !d_samp +. (b -. a);
        f_samp := !f_samp +. (Clock.now_s () -. b);
        incr samples;
        loop ()
    end
  in
  let streamed =
    match loop () with
    | () -> Ok ()
    | exception Stream.Parse_error m -> Error m
  in
  Stream.close_source src;
  let events = p.p_events in
  let fin0 = Clock.now_s () in
  let outcome =
    match streamed with
    | Ok () -> Ok (finish p)
    | Error m ->
      fail p;
      Error m
  in
  let now = Clock.now_s () in
  let us s = int_of_float (1e6 *. s) in
  let st_total_us = us (now -. t0) in
  let st_decode_us, st_feed_us =
    if !samples = 0 then (0, 0)
    else begin
      let scale v = us (v *. float_of_int events /. float_of_int !samples) in
      let d = scale !d_samp and f = scale !f_samp in
      (* Independent estimates; never let them claim more than the
         exactly-measured stream time. *)
      if d + f > st_total_us && d + f > 0 then
        (d * st_total_us / (d + f), f * st_total_us / (d + f))
      else (d, f)
    end
  in
  let stats = { st_events = events; st_decode_us; st_feed_us; st_total_us } in
  Registry.observe ctx.h_decode stats.st_decode_us;
  Registry.observe ctx.h_feed stats.st_feed_us;
  Registry.observe ctx.h_stream stats.st_total_us;
  if Span.enabled () then begin
    let d_end = span_t0 + stats.st_decode_us in
    let f_end = d_end + stats.st_feed_us in
    Span.record "decode" ~args:[ ("events", events) ] ~start_us:span_t0 ~end_us:d_end;
    Span.record "feed" ~start_us:d_end ~end_us:f_end;
    Span.record "finalize" ~start_us:f_end ~end_us:(f_end + us (now -. fin0))
  end;
  (outcome, stats)
