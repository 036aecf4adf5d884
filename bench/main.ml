(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §2 and EXPERIMENTS.md).

   Sections:
     EXP-T1   Table 1  - maximum memory footprint per workload and manager
     EXP-TELEM Telemetry overhead - the DRR/Lea replay under no probe,
              null sink, metrics sink, registry sink and stream analytics
     EXP-PROFILE Lifetime profiler overhead - the same replay under the
              span-matching lifetime sink and the heat-map raster, vs the
              bare metrics sink
     EXP-CHECK Heap sanitizer - invariant + conformance pass over the
              recorded DRR event streams (quick scale, deterministic)
     EXP-F5   Figure 5 - DM footprint over time, Lea vs custom, DRR
     EXP-F4   Figure 4 - tree-order ablation
     EXP-PERF Section 5 text - execution-time comparison (abstract ops and
              Bechamel wall-clock; one Bechamel test per Table 1 column)

   The simulation grids (EXP-T1, EXP-SRCH, EXP-MIX) run on the engine's
   domain pool; EXP-T1 is additionally timed under one worker and under
   the full pool, and the wall-clock of every section lands in
   BENCH_results.json so the perf trajectory is tracked across changes.

   Run with DMM_BENCH_QUICK=1 for a fast smoke pass, DMM_JOBS=N to pin
   the worker count, DMM_BENCH_SKIP_WALL=1 to skip the (non-deterministic)
   Bechamel wall-clock section. *)

module Experiments = Dmm_workloads.Experiments
module Scenario = Dmm_workloads.Scenario
module Trace = Dmm_trace.Trace
module Replay = Dmm_trace.Replay
module Footprint_series = Dmm_trace.Footprint_series
module Csv = Dmm_trace.Csv
module Pool = Dmm_engine.Pool
module Probe = Dmm_obs.Probe

let quick = Sys.getenv_opt "DMM_BENCH_QUICK" <> None
let skip_wall = Sys.getenv_opt "DMM_BENCH_SKIP_WALL" <> None

let section title =
  Printf.printf "\n=== %s ===\n%!" title

(* Wall-clock ledger for BENCH_results.json. Timing lines on stdout are
   prefixed with [time] so deterministic-output diffs can strip them. *)
let section_times : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  section_times := (name, dt) :: !section_times;
  Printf.printf "[time] %-9s %.2fs (jobs=%d)\n%!" name dt (Pool.jobs ());
  r

(* ------------------------------------------------------------------ *)
(* EXP-T1: Table 1                                                     *)

(* The worker count for the parallel EXP-T1 pass: whatever DMM_JOBS says,
   else at least two domains so the speedup measurement is meaningful
   even when the recommended count is one. *)
let parallel_jobs =
  match Sys.getenv_opt "DMM_JOBS" with
  | Some _ -> Pool.jobs ()
  | None -> max 2 (Pool.jobs ())

type t1_timing = {
  jobs1_seconds : float;
  jobsn : int;
  jobsn_seconds : float;
  speedup : float;
  identical : bool;
}

let render_tables tables =
  String.concat "\n" (List.map (Format.asprintf "%a" Experiments.pp_table) tables)

let table1 () =
  section "EXP-T1: Table 1 - maximum memory footprint (bytes)";
  let seeds = if quick then 1 else 3 in
  let run jobs = Pool.with_jobs jobs (fun () -> Experiments.table1 ~seeds ()) in
  let t0 = Unix.gettimeofday () in
  let sequential = run 1 in
  let jobs1_seconds = Unix.gettimeofday () -. t0 in
  let tables, jobsn_seconds =
    if parallel_jobs = 1 then (sequential, jobs1_seconds)
    else begin
      let t0 = Unix.gettimeofday () in
      let tables = run parallel_jobs in
      (tables, Unix.gettimeofday () -. t0)
    end
  in
  List.iter (fun t -> Format.printf "%a@." Experiments.pp_table t) tables;
  let identical = render_tables tables = render_tables sequential in
  let timing =
    {
      jobs1_seconds;
      jobsn = parallel_jobs;
      jobsn_seconds;
      speedup = jobs1_seconds /. Float.max 1e-9 jobsn_seconds;
      identical;
    }
  in
  section_times := ("EXP-T1", jobsn_seconds) :: !section_times;
  Printf.printf
    "[time] EXP-T1    jobs=1: %.2fs  jobs=%d: %.2fs  speedup %.2fx  identical=%b\n%!"
    timing.jobs1_seconds timing.jobsn timing.jobsn_seconds timing.speedup
    timing.identical;
  if not identical then
    Dmm_obs.Log.err "%s" "EXP-T1: WARNING: parallel and sequential tables differ!";
  (tables, timing)

(* ------------------------------------------------------------------ *)
(* EXP-OBS: the observability layer reproducing Table 1                *)

module Jsonl_sink = Dmm_obs.Jsonl_sink
module Binary_sink = Dmm_obs.Binary_sink

type obs_report = {
  obs_seconds : float;
  obs_identical : bool;
  obs_events : int;
  obs_jsonl_record_seconds : float;  (* replay + buffered JSONL export *)
  obs_binary_record_seconds : float;  (* replay + chunked binary export *)
  obs_bare_replay_seconds : float;  (* no probe at all *)
  obs_empty_probe_seconds : float;  (* probe created but zero sinks *)
}

(* Probe-on replays must reproduce the probe-off Table 1 exactly: the
   footprint column is rebuilt by a Series_sink from sbrk/trim deltas and
   the ops column by a Metrics_sink from fit-scan events, so any missing
   or double-counted event shows up as a diff. *)
let obs_section tables =
  section "EXP-OBS: Table 1 reconstructed from the observability event stream";
  let seeds = if quick then 1 else 3 in
  let t0 = Unix.gettimeofday () in
  let probed = Experiments.table1 ~probe:true ~seeds () in
  let obs_seconds = Unix.gettimeofday () -. t0 in
  let obs_identical = render_tables probed = render_tables tables in
  (* Event volume of one observed DRR replay, for scale. *)
  let probe = Probe.create () in
  Probe.attach probe (fun _ _ -> ());
  let trace = Experiments.drr_trace_seed 42 in
  Replay.run ~probe trace (Scenario.lea ~probe ());
  let obs_events = Probe.clock probe in
  Printf.printf "  probe-on tables identical to probe-off: %b
" obs_identical;
  Printf.printf "  events in one observed DRR replay under Lea: %d
" obs_events;
  if not obs_identical then
    Dmm_obs.Log.err "%s" "EXP-OBS: WARNING: probe-on tables differ from probe-off!";
  (* Recording overhead: the same replay exporting its stream to the
     null device through each codec — buffered JSONL rendering vs the
     chunked binary framing. Best of 3, wall-clock only. *)
  let record_with make_sink =
    let best = ref infinity in
    for _ = 1 to 3 do
      let oc = open_out_bin Filename.null in
      let probe = Probe.create () in
      let finish = make_sink probe oc in
      let t0 = Unix.gettimeofday () in
      Replay.run ~probe trace (Scenario.lea ~probe ());
      finish ();
      let dt = Unix.gettimeofday () -. t0 in
      close_out oc;
      if dt < !best then best := dt
    done;
    !best
  in
  let obs_jsonl_record_seconds =
    record_with (fun probe oc ->
        let sink = Jsonl_sink.create oc in
        Jsonl_sink.attach probe sink;
        fun () -> Jsonl_sink.flush sink)
  in
  let obs_binary_record_seconds =
    record_with (fun probe oc ->
        let sink = Binary_sink.create oc in
        Binary_sink.attach probe sink;
        fun () -> Binary_sink.finish sink)
  in
  (* Sinkless-probe fast path: a probe with zero sinks must cost about
     nothing over no probe at all, because Replay hoists
     [Probe.is_empty] and skips the observer plumbing wholesale. Best of
     5 so scheduler noise doesn't fake a regression. *)
  let best_of n f =
    let best = ref infinity in
    for _ = 1 to n do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let obs_bare_replay_seconds =
    best_of 5 (fun () -> Replay.run trace (Scenario.lea ()))
  in
  let obs_empty_probe_seconds =
    best_of 5 (fun () ->
        let probe = Probe.create () in
        Replay.run ~probe trace (Scenario.lea ~probe ()))
  in
  let empty_probe_pct =
    (obs_empty_probe_seconds /. Float.max 1e-9 obs_bare_replay_seconds -. 1.0)
    *. 100.0
  in
  section_times := ("EXP-OBS", obs_seconds) :: !section_times;
  Printf.printf "[time] EXP-OBS   %.2fs
%!" obs_seconds;
  Printf.printf
    "[time] EXP-OBS   recording: jsonl %.3fs (%.1f Mev/s)  binary %.3fs (%.1f Mev/s)\n%!"
    obs_jsonl_record_seconds
    (float_of_int obs_events /. obs_jsonl_record_seconds /. 1e6)
    obs_binary_record_seconds
    (float_of_int obs_events /. obs_binary_record_seconds /. 1e6);
  Printf.printf
    "[time] EXP-OBS   empty-probe: bare %.3fs  sinkless %.3fs  overhead %+.1f%%\n%!"
    obs_bare_replay_seconds obs_empty_probe_seconds empty_probe_pct;
  (* Wall-clock-dependent, so the verdict stays behind the [time] prefix
     that deterministic-output diffs strip. *)
  if empty_probe_pct > 10.0 then
    Printf.printf
      "[time] EXP-OBS   WARNING: sinkless probe costs more than 10%% over bare replay\n%!";
  { obs_seconds; obs_identical; obs_events; obs_jsonl_record_seconds;
    obs_binary_record_seconds; obs_bare_replay_seconds; obs_empty_probe_seconds }

(* ------------------------------------------------------------------ *)
(* EXP-TELEM: telemetry overhead on the event hot path                 *)

type telem_report = {
  telem_events : int;
  telem_no_probe : float;
  telem_null : float;
  telem_metrics : float;
  telem_registry : float;
  telem_analytics : float;
  telem_registry_overhead_pct : float;
}

(* The same DRR replay under Lea with progressively heavier observers:
   nothing, a null sink (probe dispatch alone), the bare mutable-field
   metrics sink, the atomic registry sink, and the full stream-analytics
   pair (histograms + fragmentation series). The interesting number is
   the registry's premium over the bare sink — the price of Domain-safe
   shared cells — which the acceptance bar caps at 10%. *)
let telem_section () =
  section "EXP-TELEM: telemetry overhead on the event hot path (DRR under Lea)";
  let trace = Experiments.drr_trace_seed 42 in
  (* Best-of-N even in quick mode: each observed replay is ~0.05 s, and a
     single rep is noisy enough to swamp the <=10% overhead bar. *)
  let reps = if quick then 3 else 5 in
  let best f =
    let rec go i acc =
      if i = 0 then acc
      else begin
        let t0 = Unix.gettimeofday () in
        f ();
        go (i - 1) (Float.min acc (Unix.gettimeofday () -. t0))
      end
    in
    go reps infinity
  in
  let no_probe = best (fun () -> Replay.run trace (Scenario.lea ())) in
  let with_probe attach =
    let events = ref 0 in
    let dt =
      best (fun () ->
          let probe = Probe.create () in
          attach probe;
          Replay.run ~probe trace (Scenario.lea ~probe ());
          events := Probe.clock probe)
    in
    (dt, !events)
  in
  let null_s, events =
    with_probe (fun probe -> Probe.attach probe (fun _ _ -> ()))
  in
  let metrics_s, _ =
    with_probe (fun probe ->
        Dmm_obs.Metrics_sink.attach probe (Dmm_obs.Metrics_sink.create ()))
  in
  let registry_s, _ =
    with_probe (fun probe ->
        let reg = Dmm_obs.Registry.create () in
        Dmm_obs.Registry_sink.attach probe (Dmm_obs.Registry_sink.create reg))
  in
  let analytics_s, _ =
    with_probe (fun probe ->
        Dmm_obs.Hist_sink.attach probe (Dmm_obs.Hist_sink.create ());
        Dmm_obs.Frag_sink.attach probe (Dmm_obs.Frag_sink.create ()))
  in
  let rate dt = float_of_int events /. Float.max 1e-9 dt /. 1e6 in
  let overhead = (registry_s -. metrics_s) /. Float.max 1e-9 metrics_s *. 100. in
  Printf.printf "  events per observed replay: %d\n" events;
  Printf.printf "[time]   no probe        %.3fs\n" no_probe;
  Printf.printf "[time]   null sink       %.3fs  (%.1f Mev/s)\n" null_s (rate null_s);
  Printf.printf "[time]   metrics sink    %.3fs  (%.1f Mev/s)\n" metrics_s
    (rate metrics_s);
  Printf.printf "[time]   registry sink   %.3fs  (%.1f Mev/s)  overhead vs metrics %+.1f%%\n"
    registry_s (rate registry_s) overhead;
  Printf.printf "[time]   hist+frag sinks %.3fs  (%.1f Mev/s)\n%!" analytics_s
    (rate analytics_s);
  {
    telem_events = events;
    telem_no_probe = no_probe;
    telem_null = null_s;
    telem_metrics = metrics_s;
    telem_registry = registry_s;
    telem_analytics = analytics_s;
    telem_registry_overhead_pct = overhead;
  }

(* ------------------------------------------------------------------ *)
(* EXP-PROFILE: lifetime-profiler overhead on the event hot path       *)

type profile_report = {
  prof_events : int;
  prof_metrics : float;
  prof_lifetime : float;
  prof_lifetime_heatmap : float;
  prof_overhead_pct : float;
  prof_spans : int;
  prof_leaked_bytes : int;
}

(* The same DRR replay under Lea with the span-matching profiler
   attached: the bare mutable-field metrics sink is the floor, then the
   lifetime sink alone (hashtable per live block + histograms per
   completion), then lifetime + heat-map raster. The headline number is
   the lifetime sink's premium over the bare sink — the price `dmm
   profile` pays on a live replay. *)
let profile_section () =
  section "EXP-PROFILE: lifetime profiler overhead (DRR under Lea)";
  let trace = Experiments.drr_trace_seed 42 in
  let reps = if quick then 3 else 5 in
  let best f =
    let rec go i acc =
      if i = 0 then acc
      else begin
        let t0 = Unix.gettimeofday () in
        f ();
        go (i - 1) (Float.min acc (Unix.gettimeofday () -. t0))
      end
    in
    go reps infinity
  in
  let with_probe attach =
    let events = ref 0 in
    let dt =
      best (fun () ->
          let probe = Probe.create () in
          attach probe;
          Replay.run ~probe trace (Scenario.lea ~probe ());
          events := Probe.clock probe)
    in
    (dt, !events)
  in
  let metrics_s, events =
    with_probe (fun probe ->
        Dmm_obs.Metrics_sink.attach probe (Dmm_obs.Metrics_sink.create ()))
  in
  let lifetime_s, _ =
    with_probe (fun probe ->
        Dmm_obs.Lifetime_sink.attach probe (Dmm_obs.Lifetime_sink.create ()))
  in
  let full_s, _ =
    with_probe (fun probe ->
        Dmm_obs.Lifetime_sink.attach probe (Dmm_obs.Lifetime_sink.create ());
        Dmm_obs.Heatmap_sink.attach probe (Dmm_obs.Heatmap_sink.create ()))
  in
  (* One more observed replay to capture the profile itself. *)
  let lt = Dmm_obs.Lifetime_sink.create () in
  let probe = Probe.create () in
  Dmm_obs.Lifetime_sink.attach probe lt;
  Replay.run ~probe trace (Scenario.lea ~probe ());
  let spans = Dmm_obs.Lifetime_sink.spans lt in
  let leaked = Dmm_obs.Lifetime_sink.leaked_bytes lt in
  let rate dt = float_of_int events /. Float.max 1e-9 dt /. 1e6 in
  let overhead = (lifetime_s -. metrics_s) /. Float.max 1e-9 metrics_s *. 100. in
  Printf.printf "  events per observed replay: %d   spans: %d   leaked: %d B\n"
    events spans leaked;
  Printf.printf "[time]   metrics sink     %.3fs  (%.1f Mev/s)\n" metrics_s
    (rate metrics_s);
  Printf.printf
    "[time]   lifetime sink    %.3fs  (%.1f Mev/s)  overhead vs metrics %+.1f%%\n"
    lifetime_s (rate lifetime_s) overhead;
  Printf.printf "[time]   lifetime+heatmap %.3fs  (%.1f Mev/s)\n%!" full_s
    (rate full_s);
  {
    prof_events = events;
    prof_metrics = metrics_s;
    prof_lifetime = lifetime_s;
    prof_lifetime_heatmap = full_s;
    prof_overhead_pct = overhead;
    prof_spans = spans;
    prof_leaked_bytes = leaked;
  }

(* ------------------------------------------------------------------ *)
(* EXP-CHECK: heap sanitizer over the replayed event streams           *)

module Collect_sink = Dmm_obs.Collect_sink
module Sanitizer = Dmm_check.Sanitizer
module Stream = Dmm_check.Stream

(* Every baseline's DRR event stream must pass the heap-invariant pass
   clean, and the custom design must additionally pass design
   conformance. Always runs at quick scale (like the Bechamel section) so
   the captured streams stay bounded; diagnostic counts are deterministic
   and land in the smoke-test diff. *)
let check_section () =
  section "EXP-CHECK: heap sanitizer over replayed DRR event streams";
  let saved = !Experiments.paper_scale in
  Experiments.paper_scale := false;
  Fun.protect ~finally:(fun () -> Experiments.paper_scale := saved) @@ fun () ->
  let trace = Experiments.drr_trace_seed 42 in
  let capture (make : Scenario.maker) =
    let probe = Probe.create () in
    let sink = Collect_sink.create () in
    Collect_sink.attach probe sink;
    Replay.run ~probe trace (make ~probe ());
    Stream.of_pairs (Collect_sink.to_array sink)
  in
  let report name (r : Sanitizer.report) =
    let n = List.length r.Sanitizer.diags in
    Printf.printf "  %-22s %8d events  %d diagnostics (%s)%s\n" name
      r.Sanitizer.events n
      (if r.Sanitizer.conformance_checked then "invariants + design conformance"
       else "invariants")
      (if n = 0 then "  clean" else "");
    List.iter
      (fun d -> Format.printf "    %a@." Dmm_check.Diag.pp d)
      r.Sanitizer.diags
  in
  List.iter
    (fun (name, make) -> report name (Sanitizer.run (capture make)))
    (Scenario.baselines ());
  let sim = Dmm_engine.Sim.create trace in
  report "custom" (Dmm_engine.Sim.sanitize sim (Scenario.drr_paper_design ()))

(* ------------------------------------------------------------------ *)
(* EXP-ORACLE: Merlin lifetime oracle - drag, leaks, throughput        *)

module Oracle = Dmm_check.Oracle
module Gcheap = Dmm_workloads.Gcheap

type oracle_report = {
  orc_events : int;  (** events in the graph-level DRR/Lea stream *)
  orc_seconds : float;  (** best-of-3 oracle analysis wall *)
  orc_events_per_sec : float;
  orc_drr_leaks : int;  (** must be 0: scripted replays are leak-clean *)
  orc_drr_drag : int;  (** must be 0: death coincides with the free *)
  orc_gc_objects : int;
  orc_gc_freed : int;
  orc_gc_leaks : int;
  orc_gc_drag_p50 : int;
  orc_gc_drag_p99 : int;
  orc_gc_defects : int;
}

(* Two halves. First the soundness anchor: the scripted DRR replay at
   the graph probe level must come out of the oracle with zero drag and
   zero leaks — every free is exact, so any nonzero number is a false
   positive — and that run doubles as the analysis-throughput
   measurement (best of 3 over the captured stream). Then the GC-heap
   client with lagged refcount frees, where drag and leaks are the
   expected signal: the lag shows up as per-object drag and the dropped
   cycles as oracle-leak reports, with zero graph defects. *)
let oracle_section () =
  section "EXP-ORACLE: Merlin lifetime oracle (drag, leaks, throughput)";
  let saved = !Experiments.paper_scale in
  Experiments.paper_scale := false;
  Fun.protect ~finally:(fun () -> Experiments.paper_scale := saved) @@ fun () ->
  let trace = Experiments.drr_trace_seed 42 in
  let probe = Probe.create () in
  let sink = Collect_sink.create () in
  Collect_sink.attach probe sink;
  Replay.run ~probe ~graph:true trace (Scenario.lea ~probe ());
  let stream = Stream.of_pairs (Collect_sink.to_array sink) in
  let orc_events = Stream.length stream in
  let best = ref infinity and last = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let r = Oracle.run stream in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    last := Some r
  done;
  let r = Option.get !last in
  let orc_drr_leaks = List.length r.Oracle.r_leaks in
  let orc_drr_drag = Dmm_obs.Log_hist.sum r.Oracle.r_drag in
  let orc_seconds = !best in
  let orc_events_per_sec = float_of_int orc_events /. Float.max 1e-9 orc_seconds in
  Printf.printf "  drr/lea: %d events (%d graph), %d objects, leaks %d, total drag %d\n"
    orc_events r.Oracle.r_graph_events (Array.length r.Oracle.r_objects)
    orc_drr_leaks orc_drr_drag;
  if orc_drr_leaks <> 0 || orc_drr_drag <> 0 then
    Dmm_obs.Log.err "%s" "EXP-ORACLE: WARNING: false positives on the scripted replay!";
  let config =
    { Gcheap.default_config with Gcheap.nodes_per_phase = 400; free_lag = Some 50 }
  in
  let gc_stream, stats = Scenario.gcheap_stream ~config Scenario.lea in
  let g = Oracle.run gc_stream in
  let orc_gc_defects = Oracle.defect_count g.Oracle.r_defects in
  let orc_gc_drag_p50 = Dmm_obs.Log_hist.percentile g.Oracle.r_drag 0.5
  and orc_gc_drag_p99 = Dmm_obs.Log_hist.percentile g.Oracle.r_drag 0.99 in
  Printf.printf
    "  gcheap (lag 50): %d objects, freed %d, leaked %d, drag p50 %d p99 %d, defects %d\n"
    stats.Gcheap.g_allocs g.Oracle.r_freed
    (List.length g.Oracle.r_leaks)
    orc_gc_drag_p50 orc_gc_drag_p99 orc_gc_defects;
  if orc_gc_defects <> 0 then
    Dmm_obs.Log.err "%s" "EXP-ORACLE: WARNING: coherent gcheap stream produced defects!";
  Printf.printf "[time] EXP-ORACLE analysis: %.3fs (%.1f Mev/s)\n%!" orc_seconds
    (orc_events_per_sec /. 1e6);
  {
    orc_events;
    orc_seconds;
    orc_events_per_sec;
    orc_drr_leaks;
    orc_drr_drag;
    orc_gc_objects = stats.Gcheap.g_allocs;
    orc_gc_freed = g.Oracle.r_freed;
    orc_gc_leaks = List.length g.Oracle.r_leaks;
    orc_gc_drag_p50;
    orc_gc_drag_p99;
    orc_gc_defects;
  }

(* ------------------------------------------------------------------ *)
(* EXP-INGEST: codec load speed and sharded online ingest              *)

module Ingest = Dmm_engine.Ingest
module Registry = Dmm_obs.Registry

type ingest_report = {
  ing_events : int;  (** events in the rendered DRR/Lea stream *)
  ing_jsonl_bytes : int;
  ing_binary_bytes : int;
  ing_jsonl_load_seconds : float;
  ing_binary_load_seconds : float;
  ing_load_speedup : float;  (** jsonl / binary offline load time *)
  ing_identical : bool;  (** both files decode to the same entries *)
  ing_streams : int;
  ing_serve_seconds : float;  (** sharded full-pipeline ingest, wall *)
  ing_events_per_sec : float;  (** aggregate across all streams *)
}

(* One observed DRR replay under Lea is rendered once through both
   codecs, then read back: best-of-3 cold iteration over each file gives
   the offline load comparison (the binary framing should be >= 5x
   faster than JSONL parsing), a digest fold proves the two encodings
   decode to identical entries, and finally [ing_streams] copies of the
   binary stream are pushed through the full [dmm serve] pipeline
   (sanitizer + registry + histogram + lifetime sinks) sharded across
   the pool, reporting aggregate events/second. Every line except the
   [time]-prefixed rates is jobs-invariant. *)
let ingest_section () =
  section "EXP-INGEST: binary codec load speed and sharded online ingest";
  let trace = Experiments.drr_trace_seed 42 in
  let jsonl_path = Filename.temp_file "dmm_ingest" ".jsonl" in
  let binary_path = Filename.temp_file "dmm_ingest" ".dmmt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove jsonl_path with Sys_error _ -> ());
      try Sys.remove binary_path with Sys_error _ -> ())
  @@ fun () ->
  (* Render the stream once, through both sinks. *)
  let ing_events =
    let jc = open_out_bin jsonl_path and bc = open_out_bin binary_path in
    let probe = Probe.create () in
    let js = Jsonl_sink.create jc and bs = Binary_sink.create bc in
    Jsonl_sink.attach probe js;
    Binary_sink.attach probe bs;
    Replay.run ~probe trace (Scenario.lea ~probe ());
    Jsonl_sink.flush js;
    Binary_sink.finish bs;
    close_out jc;
    close_out bc;
    Probe.clock probe
  in
  let size path = (Unix.stat path).Unix.st_size in
  let ing_jsonl_bytes = size jsonl_path
  and ing_binary_bytes = size binary_path in
  Printf.printf "  stream: %d events  jsonl %d B  binary %d B (%.1fx smaller)\n"
    ing_events ing_jsonl_bytes ing_binary_bytes
    (float_of_int ing_jsonl_bytes /. float_of_int (max 1 ing_binary_bytes));
  let must = function
    | Ok v -> v
    | Error e -> failwith ("EXP-INGEST: " ^ e)
  in
  (* Offline load: iterate every entry of each file, best of 3. *)
  let load_time path =
    let best = ref infinity in
    for _ = 1 to 3 do
      let src = must (Stream.source_of_file path) in
      let t0 = Unix.gettimeofday () in
      let n = must (Stream.iter_source src ~f:ignore) in
      let dt = Unix.gettimeofday () -. t0 in
      if n <> ing_events then
        failwith (Printf.sprintf "EXP-INGEST: %s decoded %d of %d events" path n
                    ing_events);
      if dt < !best then best := dt
    done;
    !best
  in
  let ing_jsonl_load_seconds = load_time jsonl_path in
  let ing_binary_load_seconds = load_time binary_path in
  let ing_load_speedup =
    ing_jsonl_load_seconds /. Float.max 1e-9 ing_binary_load_seconds
  in
  (* Differential digest: both encodings must decode to the same entries. *)
  let digest path =
    let src = must (Stream.source_of_file path) in
    must
      (Stream.fold_source src ~init:0 ~f:(fun acc (e : Stream.entry) ->
           ((acc * 131) + Hashtbl.hash (e.clock, e.event)) land max_int))
  in
  let ing_identical = digest jsonl_path = digest binary_path in
  Printf.printf "  decoded entries identical across codecs: %b\n" ing_identical;
  if not ing_identical then
    Dmm_obs.Log.err "%s" "EXP-INGEST: WARNING: jsonl and binary decode differently!";
  (* Sharded online ingest: every stream through the full serve pipeline
     against one shared registry, fanned out over the pool. The stream
     count is fixed so stdout stays identical across DMM_JOBS values. *)
  let ing_streams = 4 in
  let data =
    let ic = open_in_bin binary_path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  let ctx = Ingest.create (Registry.create ()) in
  let t0 = Unix.gettimeofday () in
  let summaries =
    Pool.map (Array.init ing_streams Fun.id) (fun _ ->
        must (Ingest.run_source ctx (Stream.source_of_string data)))
  in
  let ing_serve_seconds = Unix.gettimeofday () -. t0 in
  let total_events =
    Array.fold_left
      (fun acc (s : Ingest.summary) -> acc + s.report.Sanitizer.events)
      0 summaries
  in
  let total_diags =
    Array.fold_left
      (fun acc (s : Ingest.summary) ->
        acc + List.length s.report.Sanitizer.diags)
      0 summaries
  in
  let ing_events_per_sec =
    float_of_int total_events /. Float.max 1e-9 ing_serve_seconds
  in
  Printf.printf "  sharded ingest: %d streams  %d events  %d diagnostics\n"
    ing_streams total_events total_diags;
  Printf.printf
    "[time] EXP-INGEST load: jsonl %.3fs  binary %.3fs  speedup %.1fx\n%!"
    ing_jsonl_load_seconds ing_binary_load_seconds ing_load_speedup;
  Printf.printf
    "[time] EXP-INGEST serve: %d streams in %.3fs  %.2f Mev/s aggregate\n%!"
    ing_streams ing_serve_seconds (ing_events_per_sec /. 1e6);
  {
    ing_events;
    ing_jsonl_bytes;
    ing_binary_bytes;
    ing_jsonl_load_seconds;
    ing_binary_load_seconds;
    ing_load_speedup;
    ing_identical;
    ing_streams;
    ing_serve_seconds;
    ing_events_per_sec;
  }

(* ------------------------------------------------------------------ *)
(* EXP-SERVE-OBS: cost of full serve observability                     *)

type serve_obs_report = {
  so_streams : int;
  so_events : int;  (** aggregate across all streams, observed run *)
  so_bare_seconds : float;  (** best-of-3, plain [run_source] *)
  so_observed_seconds : float;
      (** best-of-3, [run_source_observed] + ambient tracer + access log *)
  so_overhead_pct : float;
  so_spans : int;  (** spans recorded by the last observed round *)
  so_log_lines : int;  (** access-log records of the last observed round *)
}

(* The same 4-stream sharded soak as EXP-INGEST run twice: once bare
   (plain [run_source], no tracer, no log — the PR-7-era daemon), once
   with the full observability stack a traced [dmm serve] carries per
   connection: span tracer ambient, conn span + queue-wait recording,
   the batched observed driver (stage histograms + stage spans) and one
   access-log record per stream. The delta is the price of service-grade
   observability; the gate is <5%. *)
let serve_obs_section () =
  section "EXP-SERVE-OBS: cost of spans + stage histograms + access log";
  let trace = Experiments.drr_trace_seed 42 in
  let binary_path = Filename.temp_file "dmm_sobs" ".dmmt" in
  let log_path = Filename.temp_file "dmm_sobs" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove binary_path with Sys_error _ -> ());
      try Sys.remove log_path with Sys_error _ -> ())
  @@ fun () ->
  let () =
    let bc = open_out_bin binary_path in
    let probe = Probe.create () in
    let bs = Binary_sink.create bc in
    Binary_sink.attach probe bs;
    Replay.run ~probe trace (Scenario.lea ~probe ());
    Binary_sink.finish bs;
    close_out bc
  in
  let data =
    let ic = open_in_bin binary_path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)
  in
  let so_streams = 4 in
  (* Each worker ingests the stream [passes] times back to back: a
     container-scale quick round is otherwise too short (~0.4s) for a
     stable wall-clock ratio. *)
  let passes = if quick then 2 else 1 in
  let module Span = Dmm_obs.Span in
  let module Access_log = Dmm_obs.Access_log in
  let module Trace_ctx = Dmm_obs.Trace_ctx in
  let bare_round () =
    let ctx = Ingest.create (Registry.create ()) in
    let t0 = Unix.gettimeofday () in
    let events =
      Pool.map (Array.init so_streams Fun.id) (fun _ ->
          let n = ref 0 in
          for _ = 1 to passes do
            match Ingest.run_source ctx (Stream.source_of_string data) with
            | Ok (s : Ingest.summary) -> n := !n + s.report.Sanitizer.events
            | Error e -> failwith ("EXP-SERVE-OBS: " ^ e)
          done;
          !n)
    in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Array.fold_left ( + ) 0 events)
  in
  let observed_round () =
    let ctx = Ingest.create (Registry.create ()) in
    Ingest.set_shards ctx so_streams;
    let tracer = Span.create () in
    Span.set_ambient (Some tracer);
    let alog =
      match Access_log.open_file log_path with
      | Ok l -> l
      | Error m -> failwith ("EXP-SERVE-OBS: " ^ m)
    in
    let root = Trace_ctx.make () in
    let t0 = Unix.gettimeofday () in
    let events =
      Pool.map (Array.init so_streams Fun.id) (fun shard ->
          let c = Trace_ctx.child root in
          Ingest.shard_enqueue ctx shard;
          Ingest.shard_dequeue ctx shard ~wait_us:0;
          let n = ref 0 and total_us = ref 0 in
          for _ = 1 to passes do
            let outcome, stats =
              Span.with_span ~args:[ ("shard", shard) ]
                ~sargs:[ ("trace_id", c.Trace_ctx.trace_id) ]
                "conn"
              @@ fun () ->
              Ingest.run_source_observed ctx (Stream.source_of_string data)
            in
            (match outcome with
            | Ok _ -> ()
            | Error e -> failwith ("EXP-SERVE-OBS: " ^ e));
            Ingest.add_bytes ctx (String.length data);
            n := !n + stats.Ingest.st_events;
            total_us := !total_us + stats.Ingest.st_total_us
          done;
          Access_log.(
            write alog
              [
                ("ts", S (iso8601 t0));
                ("shard", I shard);
                ("trace_id", S c.Trace_ctx.trace_id);
                ("status", S "ok");
                ("events", I !n);
                ("total_us", I !total_us);
              ]);
          !n)
    in
    let dt = Unix.gettimeofday () -. t0 in
    Span.set_ambient None;
    Access_log.close alog;
    (dt, Array.fold_left ( + ) 0 events, Span.span_count tracer)
  in
  (* The variants alternate round by round, each behind a compaction, so
     heap drift across the section hits both sides evenly instead of
     taxing whichever runs last; the reported time is a trimmed mean
     (slowest round dropped) — on a noisy shared container a lone
     descheduled round otherwise swings the ratio by several percent. *)
  let rounds = if quick then 5 else 3 in
  let bare_times = Array.make rounds 0.0 in
  let obs_times = Array.make rounds 0.0 in
  let ev = ref 0 and sp = ref 0 in
  for r = 0 to rounds - 1 do
    Gc.compact ();
    let dt, _ = bare_round () in
    bare_times.(r) <- dt;
    Gc.compact ();
    let dt, e, s = observed_round () in
    ev := e;
    sp := s;
    obs_times.(r) <- dt
  done;
  let trimmed_mean a =
    Array.sort compare a;
    let n = Array.length a - 1 in
    Array.fold_left ( +. ) 0.0 (Array.sub a 0 (max 1 n)) /. float_of_int (max 1 n)
  in
  let so_bare_seconds = trimmed_mean bare_times in
  let so_observed_seconds = trimmed_mean obs_times in
  let so_events, so_spans = (!ev, !sp) in
  let so_log_lines =
    let ic = open_in log_path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    !n
  in
  let so_overhead_pct =
    100.0
    *. (so_observed_seconds -. so_bare_seconds)
    /. Float.max 1e-9 so_bare_seconds
  in
  (* The span total rides the [time] line, not the deterministic output:
     the pool self-traces its workers under the ambient tracer, so the
     count legitimately varies with DMM_JOBS. *)
  Printf.printf "  serve-obs soak: %d streams  %d events  %d access-log lines\n"
    so_streams so_events so_log_lines;
  Printf.printf
    "[time] EXP-SERVE-OBS: bare %.3fs  observed %.3fs  %d spans  overhead %.1f%% (target < 5%%)\n%!"
    so_bare_seconds so_observed_seconds so_spans so_overhead_pct;
  {
    so_streams;
    so_events;
    so_bare_seconds;
    so_observed_seconds;
    so_overhead_pct;
    so_spans;
    so_log_lines;
  }

(* ------------------------------------------------------------------ *)
(* EXP-F5: Figure 5                                                    *)

let figure5 () =
  section "EXP-F5: Figure 5 - DM footprint over time (DRR run)";
  let every = if quick then 500 else 2000 in
  let series = Experiments.figure5 ~every () in
  let rows =
    List.concat_map (fun (name, pts) -> Footprint_series.to_rows ~name pts) series
  in
  Csv.write "bench_figure5.csv"
    ~header:[ "manager"; "event"; "current_bytes"; "max_bytes" ]
    rows;
  Printf.printf "wrote bench_figure5.csv (%d points)\n" (List.length rows);
  (* Coarse textual rendering of the two curves. *)
  List.iter
    (fun (name, pts) ->
      let peak = Footprint_series.peak pts in
      Printf.printf "%-22s peak=%8d B   profile: " name peak;
      let n = List.length pts in
      let stride = max 1 (n / 24) in
      List.iteri
        (fun i (p : Footprint_series.point) ->
          if i mod stride = 0 then
            let level = if peak = 0 then 0 else p.current * 8 / max 1 peak in
            print_char (match level with 0 -> '_' | 1 | 2 -> '.' | 3 | 4 -> 'o' | _ -> 'O'))
        pts;
      print_newline ())
    series

(* ------------------------------------------------------------------ *)
(* EXP-BRK: where the bytes go at the footprint peak (Section 4.1)     *)

let breakdown_section () =
  section "EXP-BRK: footprint decomposition at the peak (Section 4.1 factors)";
  List.iter
    (fun (workload, rows) ->
      Printf.printf "%s\n" workload;
      List.iter
        (fun (manager, b) ->
          Format.printf "  %-22s %a@." manager Dmm_core.Metrics.pp_breakdown b)
        rows)
    (Experiments.breakdown_table ())

(* ------------------------------------------------------------------ *)
(* EXP-NRG: energy extension (COLP'03 direction)                       *)

let energy_section () =
  section "EXP-NRG: first-order energy estimates (extension, Section 2's critique)";
  List.iter
    (fun (workload, rows) ->
      Printf.printf "%s\n" workload;
      List.iter
        (fun (manager, nj) ->
          Format.printf "  %-22s %a@." manager Dmm_core.Energy.pp_nj nj)
        rows)
    (Experiments.energy_table ())

(* ------------------------------------------------------------------ *)
(* EXP-F4: order ablation                                              *)

let order_ablation () =
  section "EXP-F4: traversal-order ablation (DRR)";
  let results = Experiments.order_ablation () in
  List.iter (fun (name, fp) -> Printf.printf "  %-36s %9d B\n" name fp) results;
  match results with
  | [ (_, good); (_, bad) ] ->
    Printf.printf "  wrong order costs %+.1f%% footprint\n"
      (100.0 *. ((float_of_int bad /. float_of_int good) -. 1.0))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* EXP-STAT: static worst-case vs dynamic management (intro claims)    *)

let static_comparison () =
  section "EXP-STAT: static worst-case allocation vs DM (introduction's motivation)";
  let r = Experiments.static_comparison () in
  Printf.printf "  static worst-case reservation         %9d B\n" r.Experiments.reserved_bytes;
  Printf.printf "  custom DM manager max footprint       %9d B\n" r.Experiments.custom_footprint;
  Printf.printf "  static overhead over DM               %8.1f%%  (paper intro: 22%% for average-sized static)\n"
    r.Experiments.static_overhead_pct;
  List.iter
    (fun (seed, overflows) ->
      Printf.printf "  same sizing on unseen input (seed %d): %d overflowing allocations%s\n"
        seed overflows
        (if overflows > 0 then "  <- static sizing fails off its design input" else ""))
    r.Experiments.overflows_on_other_inputs

(* ------------------------------------------------------------------ *)
(* EXP-MIX: concurrently running applications                          *)

let multi_app () =
  section "EXP-MIX: DRR and 3D reconstruction running concurrently (interleaved traces)";
  List.iter
    (fun (name, fp) -> Printf.printf "  %-34s %9d B\n" name fp)
    (Experiments.multi_app ())

(* ------------------------------------------------------------------ *)
(* EXP-SRCH: methodology vs blind search                               *)

let search_comparison () =
  section "EXP-SRCH: ordered methodology vs random search of the valid space (DRR)";
  let samples = if quick then 20 else 60 in
  List.iter
    (fun (name, sims, fp) ->
      Printf.printf "  %-38s %4d simulations -> %9d B\n" name sims fp)
    (Experiments.search_comparison ~samples ())

(* ------------------------------------------------------------------ *)
(* EXP-MICRO: adversarial micro-patterns                               *)

let micro () =
  section "EXP-MICRO: adversarial micro-patterns (footprint / peak live)";
  let managers =
    Scenario.baselines ()
    @ [ ("custom", Scenario.custom_manager (Scenario.drr_paper_design ())) ]
  in
  let patterns = Dmm_workloads.Micro.suite () in
  Printf.printf "  %-16s" "";
  List.iter (fun (name, _) -> Printf.printf " %9s" (String.sub (name ^ "         ") 0 9)) patterns;
  print_newline ();
  List.iter
    (fun (mname, (make : Scenario.maker)) ->
      Printf.printf "  %-16s" mname;
      List.iter
        (fun (_, trace) ->
          let peak =
            (Dmm_core.Profile.total (Dmm_trace.Profile_builder.of_trace trace))
              .Dmm_core.Profile.peak_live_bytes
          in
          let fp = Replay.max_footprint_of trace (make ()) in
          Printf.printf " %8.2fx" (float_of_int fp /. float_of_int (max 1 peak)))
        patterns;
      print_newline ())
    managers

(* ------------------------------------------------------------------ *)
(* EXP-PERF: execution time                                            *)

let ops_summary tables =
  section "EXP-PERF (a): abstract operation counts per replay";
  List.iter
    (fun (t : Experiments.table) ->
      Printf.printf "%s\n" t.workload;
      let kingsley_ops =
        List.fold_left
          (fun acc (r : Experiments.row) ->
            if r.manager = "Kingsley-Windows" then r.ops else acc)
          1 t.rows
      in
      List.iter
        (fun (r : Experiments.row) ->
          Printf.printf "  %-22s %12d ops  (%.2fx Kingsley)\n" r.manager r.ops
            (float_of_int r.ops /. float_of_int (max 1 kingsley_ops)))
        t.rows)
    tables

(* ------------------------------------------------------------------ *)
(* EXP-THRU: raw replay throughput                                     *)

type thru_row = {
  thru_workload : string;
  thru_manager : string;
  thru_events : int;
  thru_seconds : float;
  thru_ops_per_sec : float;
}

(* Replay throughput of every manager on the Table 1 workloads, measured
   the way EXP-TELEM measures overheads rather than the way the Table 1
   grid is timed: one untimed warmup replay per cell (page in the trace,
   warm the allocator code paths), then the median of N timed replays,
   sequentially on the main domain — no pool contention in the numbers.
   The replay_seconds column of the Table 1 grid stays what it always
   was (a single-shot measurement inside the parallel grid); this section
   is the one the smoke test regresses against. *)
let throughput_section () =
  section "EXP-THRU: replay throughput (1 warmup + best of N timed replays)";
  let reps = if quick then 5 else 7 in
  let best f =
    (* Drain major-GC debt left by earlier sections so it is not collected
       inside the timed replays, then one untimed warmup. The minimum of
       the timed reps is the estimator least disturbed by scheduler and
       sibling-load noise — the CI throughput floor diffs these numbers
       across runs, so variance here turns directly into flaky gates. *)
    Gc.full_major ();
    f ();
    let samples =
      List.init reps (fun _ ->
          let t0 = Unix.gettimeofday () in
          f ();
          Unix.gettimeofday () -. t0)
    in
    List.hd (List.sort compare samples)
  in
  let workloads =
    [
      ( "DRR scheduler",
        Experiments.drr_trace_seed 42,
        fun _trace -> Scenario.custom_manager (Scenario.drr_paper_design ()) );
      ( "3D image reconstruction",
        Experiments.reconstruct_trace_seed 42,
        fun trace -> Scenario.custom_manager (Scenario.design_for trace) );
      ( "3D scalable rendering",
        Experiments.render_trace_seed 42,
        fun _trace -> Scenario.custom_global (Scenario.render_paper_design ()) );
    ]
  in
  List.concat_map
    (fun (wname, trace, custom) ->
      let events = Trace.length trace in
      let live_hint = Trace.peak_live_count trace in
      let managers = Scenario.baselines () @ [ ("custom DM manager", custom trace) ] in
      Printf.printf "%s (%d events, best of %d)\n" wname events reps;
      List.map
        (fun (mname, (make : Scenario.maker)) ->
          let seconds = best (fun () -> Replay.run ~live_hint trace (make ())) in
          let ops_per_sec = float_of_int events /. Float.max 1e-9 seconds in
          Printf.printf "[time]   %-22s %9.4fs  %11.0f ops/s\n%!" mname seconds
            ops_per_sec;
          {
            thru_workload = wname;
            thru_manager = mname;
            thru_events = events;
            thru_seconds = seconds;
            thru_ops_per_sec = ops_per_sec;
          })
        managers)
    workloads

(* One Bechamel test per Table 1 column: the full workload replay under
   each manager, measuring wall-clock per run. *)
let bechamel_tests () =
  section "EXP-PERF (b): Bechamel wall-clock of full replays";
  let open Bechamel in
  let open Toolkit in
  Experiments.paper_scale := false;
  let mk_workload name trace custom =
    let managers =
      Scenario.baselines () @ [ ("custom", custom) ]
    in
    let tests =
      List.map
        (fun (mname, (make : Scenario.maker)) ->
          Test.make ~name:mname (Staged.stage (fun () -> Replay.run trace (make ()))))
        managers
    in
    Test.make_grouped ~name ~fmt:"%s/%s" tests
  in
  let drr = mk_workload "drr"
      (Experiments.drr_trace_seed 42)
      (Scenario.custom_manager (Scenario.drr_paper_design ()))
  in
  let recon = mk_workload "reconstruct"
      (Experiments.reconstruct_trace_seed 42)
      (Scenario.custom_manager (Scenario.drr_paper_design ()))
  in
  let render = mk_workload "render"
      (Experiments.render_trace_seed 42)
      (Scenario.custom_global (Scenario.render_paper_design ()))
  in
  (* The paper's 10%-overhead claim is about the application's execution
     time, not bare allocator throughput: run the full DRR simulation
     (including per-packet processing) under each manager. *)
  let live_group name run custom =
    let managers = Scenario.baselines () @ [ ("custom", custom) ] in
    Test.make_grouped ~name ~fmt:"%s/%s"
      (List.map
         (fun (mname, (make : Scenario.maker)) ->
           Test.make ~name:mname (Staged.stage (fun () -> run (make ()))))
         managers)
  in
  let atomic_custom = Scenario.custom_manager (Scenario.drr_paper_design ()) in
  let live_drr =
    let packets = Dmm_workloads.Traffic.generate Dmm_workloads.Traffic.default_config in
    live_group "drr-live"
      (fun a -> ignore (Dmm_workloads.Drr.run a packets))
      atomic_custom
  in
  let live_recon =
    live_group "reconstruct-live"
      (fun a -> ignore (Dmm_workloads.Reconstruct.run a))
      atomic_custom
  in
  let live_render =
    live_group "render-live"
      (fun a -> ignore (Dmm_workloads.Render.run a))
      (Scenario.custom_global (Scenario.render_paper_design ()))
  in
  Experiments.paper_scale := true;
  let quota = if quick then 0.2 else 1.0 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg instances group in
      let results = analyze raw in
      let contains_kingsley name =
        let n = String.length name and k = String.length "Kingsley" in
        let rec go i = i + k <= n && (String.sub name i k = "Kingsley" || go (i + 1)) in
        go 0
      in
      let baseline = ref None in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> if contains_kingsley name then baseline := Some est
          | Some _ | None -> ())
        results;
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> (name, est) :: acc
            | Some _ | None -> acc)
          results []
        |> List.sort compare
      in
      List.iter
        (fun (name, est) ->
          let vs =
            match !baseline with
            | Some b when b > 0.0 ->
              Printf.sprintf "(%.2fx Kingsley)" (est /. b)
            | Some _ | None -> ""
          in
          Printf.printf "  %-28s %12.0f ns/replay %s\n%!" name est vs)
        rows)
    [ drr; recon; render; live_drr; live_recon; live_render ]

(* ------------------------------------------------------------------ *)
(* BENCH_results.json                                                  *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_results ~(timing : t1_timing) ~(obs : obs_report) ~(telem : telem_report)
    ~(prof : profile_report) ~(orc : oracle_report) ~(ingest : ingest_report)
    ~(sobs : serve_obs_report) ~(thru : thru_row list) tables =
  let oc = open_out "BENCH_results.json" in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"dmm-bench/1\",\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"jobs\": %d,\n" parallel_jobs;
  p "  \"t1_timing\": {\n";
  p "    \"jobs1_seconds\": %.6f,\n" timing.jobs1_seconds;
  p "    \"jobsn\": %d,\n" timing.jobsn;
  p "    \"jobsn_seconds\": %.6f,\n" timing.jobsn_seconds;
  p "    \"speedup\": %.4f,\n" timing.speedup;
  p "    \"identical\": %b\n" timing.identical;
  p "  },\n";
  p "  \"obs\": {\n";
  p "    \"seconds\": %.6f,\n" obs.obs_seconds;
  p "    \"identical\": %b,\n" obs.obs_identical;
  p "    \"drr_lea_events\": %d,\n" obs.obs_events;
  p "    \"jsonl_record_seconds\": %.6f,\n" obs.obs_jsonl_record_seconds;
  p "    \"binary_record_seconds\": %.6f,\n" obs.obs_binary_record_seconds;
  p "    \"bare_replay_seconds\": %.6f,\n" obs.obs_bare_replay_seconds;
  p "    \"empty_probe_seconds\": %.6f\n" obs.obs_empty_probe_seconds;
  p "  },\n";
  p "  \"ingest\": {\n";
  p "    \"events\": %d,\n" ingest.ing_events;
  p "    \"jsonl_bytes\": %d,\n" ingest.ing_jsonl_bytes;
  p "    \"binary_bytes\": %d,\n" ingest.ing_binary_bytes;
  p "    \"jsonl_load_seconds\": %.6f,\n" ingest.ing_jsonl_load_seconds;
  p "    \"binary_load_seconds\": %.6f,\n" ingest.ing_binary_load_seconds;
  p "    \"load_speedup\": %.2f,\n" ingest.ing_load_speedup;
  p "    \"identical\": %b,\n" ingest.ing_identical;
  p "    \"streams\": %d,\n" ingest.ing_streams;
  p "    \"serve_seconds\": %.6f,\n" ingest.ing_serve_seconds;
  p "    \"events_per_sec\": %.0f\n" ingest.ing_events_per_sec;
  p "  },\n";
  p "  \"serve_obs\": {\n";
  p "    \"streams\": %d,\n" sobs.so_streams;
  p "    \"events\": %d,\n" sobs.so_events;
  p "    \"spans\": %d,\n" sobs.so_spans;
  p "    \"access_log_lines\": %d,\n" sobs.so_log_lines;
  p "    \"bare_seconds\": %.6f,\n" sobs.so_bare_seconds;
  p "    \"observed_seconds\": %.6f,\n" sobs.so_observed_seconds;
  p "    \"overhead_pct\": %.2f\n" sobs.so_overhead_pct;
  p "  },\n";
  p "  \"telem\": {\n";
  p "    \"events\": %d,\n" telem.telem_events;
  p "    \"no_probe_seconds\": %.6f,\n" telem.telem_no_probe;
  p "    \"null_sink_seconds\": %.6f,\n" telem.telem_null;
  p "    \"metrics_sink_seconds\": %.6f,\n" telem.telem_metrics;
  p "    \"registry_sink_seconds\": %.6f,\n" telem.telem_registry;
  p "    \"hist_frag_seconds\": %.6f,\n" telem.telem_analytics;
  p "    \"registry_overhead_pct\": %.2f\n" telem.telem_registry_overhead_pct;
  p "  },\n";
  p "  \"profile\": {\n";
  p "    \"events\": %d,\n" prof.prof_events;
  p "    \"metrics_sink_seconds\": %.6f,\n" prof.prof_metrics;
  p "    \"lifetime_sink_seconds\": %.6f,\n" prof.prof_lifetime;
  p "    \"lifetime_heatmap_seconds\": %.6f,\n" prof.prof_lifetime_heatmap;
  p "    \"lifetime_overhead_pct\": %.2f,\n" prof.prof_overhead_pct;
  p "    \"spans\": %d,\n" prof.prof_spans;
  p "    \"leaked_bytes\": %d\n" prof.prof_leaked_bytes;
  p "  },\n";
  p "  \"oracle\": {\n";
  p "    \"events\": %d,\n" orc.orc_events;
  p "    \"analysis_seconds\": %.6f,\n" orc.orc_seconds;
  p "    \"events_per_sec\": %.0f,\n" orc.orc_events_per_sec;
  p "    \"drr_leaks\": %d,\n" orc.orc_drr_leaks;
  p "    \"drr_drag_total\": %d,\n" orc.orc_drr_drag;
  p "    \"gcheap_objects\": %d,\n" orc.orc_gc_objects;
  p "    \"gcheap_freed\": %d,\n" orc.orc_gc_freed;
  p "    \"gcheap_leaks\": %d,\n" orc.orc_gc_leaks;
  p "    \"gcheap_drag_p50\": %d,\n" orc.orc_gc_drag_p50;
  p "    \"gcheap_drag_p99\": %d,\n" orc.orc_gc_drag_p99;
  p "    \"gcheap_defects\": %d\n" orc.orc_gc_defects;
  p "  },\n";
  p "  \"sections\": [\n";
  let times = List.rev !section_times in
  List.iteri
    (fun i (name, seconds) ->
      p "    { \"name\": \"%s\", \"seconds\": %.6f }%s\n" (json_escape name) seconds
        (if i = List.length times - 1 then "" else ","))
    times;
  p "  ],\n";
  p "  \"peak_footprints\": [\n";
  let rows =
    List.concat_map
      (fun (t : Experiments.table) ->
        List.map (fun (r : Experiments.row) -> (t.workload, r)) t.rows)
      tables
  in
  List.iteri
    (fun i (workload, (r : Experiments.row)) ->
      p
        "    { \"workload\": \"%s\", \"manager\": \"%s\", \"bytes\": %d, \"ops\": %d, \
         \"replay_seconds\": %.6f }%s\n"
        (json_escape workload) (json_escape r.manager) r.footprint r.ops
        r.replay_seconds
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"throughput\": [\n";
  List.iteri
    (fun i (r : thru_row) ->
      p
        "    { \"workload\": \"%s\", \"manager\": \"%s\", \"events\": %d, \
         \"replay_seconds\": %.6f, \"ops_per_sec\": %.0f }%s\n"
        (json_escape r.thru_workload) (json_escape r.thru_manager) r.thru_events
        r.thru_seconds r.thru_ops_per_sec
        (if i = List.length thru - 1 then "" else ","))
    thru;
  p "  ]\n";
  p "}\n"

(* One structured line per bench invocation into the run ledger
   (BENCH_history.jsonl, override with DMM_LEDGER): enough identity —
   git rev, scenario, jobs, throughput, footprint digest — for
   [dmm runs diff] to flag a regression between any two runs. Appended
   silently so the deterministic-output smoke diff stays byte-clean. *)
let append_ledger ~wall ~(obs : obs_report) tables =
  let module Ledger = Dmm_obs.Ledger in
  if Ledger.enabled () then begin
    let rows =
      List.concat_map
        (fun (t : Experiments.table) ->
          List.map
            (fun (r : Experiments.row) -> (t.workload ^ "/" ^ r.manager, r.footprint))
            t.rows)
        tables
    in
    let best =
      List.fold_left (fun acc (_, b) -> min acc b) max_int rows
      |> fun b -> if b = max_int then 0 else b
    in
    let sims =
      Dmm_obs.Registry.(value (counter global "dmm_sim_replays_total"))
    in
    let record =
      {
        Ledger.r_time = Unix.gettimeofday ();
        r_git = Ledger.git_rev ();
        r_cmd = "bench";
        r_scenario = (if quick then "bench-quick" else "bench-full");
        r_jobs = parallel_jobs;
        r_wall = wall;
        r_events = obs.obs_events;
        r_sims = sims;
        r_sims_per_sec = float_of_int sims /. Float.max 1e-9 wall;
        r_best_footprint = best;
        r_digest = Ledger.digest rows;
      }
    in
    match Ledger.append (Ledger.default_path ()) record with
    | Ok () -> ()
    | Error m -> Dmm_obs.Log.warn "bench: run ledger: %s" m
  end

let () =
  (* A bigger minor heap keeps the replay timing loops out of the minor
     collector (transient blocks, option cells); footprint results are
     unaffected — only wall-clock. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let bench_t0 = Unix.gettimeofday () in
  Printf.printf "DM management methodology benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  if quick then Experiments.paper_scale := false;
  let tables, timing = table1 () in
  let obs = obs_section tables in
  let telem = timed "EXP-TELEM" telem_section in
  let prof = timed "EXP-PROFILE" profile_section in
  timed "EXP-CHECK" check_section;
  let orc = timed "EXP-ORACLE" oracle_section in
  let ingest = timed "EXP-INGEST" ingest_section in
  let sobs = timed "EXP-SERVE-OBS" serve_obs_section in
  timed "EXP-F5" figure5;
  timed "EXP-BRK" breakdown_section;
  timed "EXP-NRG" energy_section;
  timed "EXP-F4" order_ablation;
  timed "EXP-SRCH" search_comparison;
  timed "EXP-STAT" static_comparison;
  timed "EXP-MIX" multi_app;
  timed "EXP-MICRO" micro;
  timed "EXP-PERF" (fun () -> ops_summary tables);
  let thru = timed "EXP-THRU" throughput_section in
  if not skip_wall then bechamel_tests ();
  write_results ~timing ~obs ~telem ~prof ~orc ~ingest ~sobs ~thru tables;
  append_ledger ~wall:(Unix.gettimeofday () -. bench_t0) ~obs tables;
  Printf.printf "\nwrote BENCH_results.json (jobs=%d, EXP-T1 speedup %.2fx)\n"
    parallel_jobs timing.speedup
