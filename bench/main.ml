(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §2 and EXPERIMENTS.md).

   Sections:
     EXP-T1   Table 1  - maximum memory footprint per workload and manager
     EXP-OBS  Table 1 rebuilt from the observability event stream
     EXP-CHECK Heap sanitizer - invariant + conformance pass over the
              recorded DRR event streams (quick scale, deterministic)
     EXP-INGEST Binary codec sizes and sharded online ingest counts
     EXP-F5   Figure 5 - DM footprint over time, Lea vs custom, DRR
     EXP-F4   Figure 4 - tree-order ablation
     EXP-PERF Section 5 text - execution-time comparison (abstract ops, and
              in a full run Bechamel wall-clock: one Bechamel test per
              Table 1 column)

   Every figure but the Bechamel section is exact: stdout and
   BENCH_results.json are identical under any DMM_JOBS, and test/bench.t
   holds the quick run to the committed BENCH_results.json. Timing with
   spread is bench/perf's job (BENCHMARK.json).

   Run with DMM_BENCH_QUICK=1 for the quick scale (no Bechamel section),
   DMM_JOBS=N to pin the worker count. *)

module Experiments = Dmm_workloads.Experiments
module Scenario = Dmm_workloads.Scenario
module Replay = Dmm_trace.Replay
module Footprint_series = Dmm_trace.Footprint_series
module Csv = Dmm_trace.Csv
module Pool = Dmm_engine.Pool
module Probe = Dmm_obs.Probe

let quick = Sys.getenv_opt "DMM_BENCH_QUICK" <> None

let section title =
  Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* EXP-T1: Table 1                                                     *)

let render_tables tables =
  String.concat "\n" (List.map (Format.asprintf "%a" Experiments.pp_table) tables)

let seeds = if quick then 1 else 3

let table1 () =
  section "EXP-T1: Table 1 - maximum memory footprint (bytes)";
  let tables = Experiments.table1 ~seeds () in
  List.iter (fun t -> Format.printf "%a@." Experiments.pp_table t) tables;
  tables

(* ------------------------------------------------------------------ *)
(* EXP-OBS: the observability layer reproducing Table 1                *)

type obs_report = {
  obs_identical : bool;
  obs_events : int;
}

(* Probe-on replays must reproduce the probe-off Table 1 exactly: the
   footprint column is rebuilt by a Series_sink from sbrk/trim deltas and
   the ops column by Metrics.on_event from fit-scan events, so any missing
   or double-counted event shows up as a diff. *)
let obs_section tables =
  section "EXP-OBS: Table 1 reconstructed from the observability event stream";
  let probed = Experiments.table1 ~probe:true ~seeds () in
  let obs_identical = render_tables probed = render_tables tables in
  (* Event volume of one observed DRR replay, for scale. *)
  let probe = Probe.create () in
  Probe.attach probe (fun _ _ -> ());
  let trace = Experiments.drr_trace_seed 42 in
  Replay.run ~probe trace (Scenario.lea ~probe ());
  let obs_events = Probe.clock probe in
  Printf.printf "  probe-on tables identical to probe-off: %b\n" obs_identical;
  Printf.printf "  events in one observed DRR replay under Lea: %d\n" obs_events;
  if not obs_identical then
    Dmm_obs.Log.err "%s" "EXP-OBS: WARNING: probe-on tables differ from probe-off!";
  { obs_identical; obs_events }

(* ------------------------------------------------------------------ *)
(* EXP-CHECK: heap sanitizer over the replayed event streams           *)

module Sanitizer = Dmm_check.Sanitizer
module Stream = Dmm_check.Stream

(* Every baseline's DRR event stream must pass the heap-invariant pass
   clean, and the custom design must additionally pass design
   conformance. Each replay feeds the sanitizer from its probe, as [dmm
   check -w] does. Always runs at quick scale (like the Bechamel section);
   diagnostic counts are deterministic and land in test/bench.t's
   jobs-identity diff. *)
let check_section () =
  section "EXP-CHECK: heap sanitizer over replayed DRR event streams";
  let saved = !Experiments.paper_scale in
  Experiments.paper_scale := false;
  Fun.protect ~finally:(fun () -> Experiments.paper_scale := saved) @@ fun () ->
  let trace = Experiments.drr_trace_seed 42 in
  let check (make : Scenario.maker) =
    let probe = Probe.create () in
    let st = Sanitizer.start () in
    Probe.attach probe (fun clock event -> Sanitizer.feed st { Stream.clock; event });
    Replay.run ~probe trace (make ~probe ());
    Sanitizer.finalize st
  in
  let report name (r : Sanitizer.report) =
    let n = List.length r.Sanitizer.diags in
    Printf.printf "  %-22s %8d events  %d diagnostics (%s)%s\n" name
      r.Sanitizer.events n
      (if r.conformance_checked then "invariants + design conformance"
       else "invariants")
      (if n = 0 then "  clean" else "");
    List.iter
      (fun d -> Format.printf "    %a@." Dmm_check.Diag.pp d)
      r.Sanitizer.diags
  in
  List.iter
    (fun (name, make) -> report name (check make))
    (Scenario.baselines ());
  let sim = Dmm_engine.Sim.create trace in
  report "custom" (Dmm_engine.Sim.sanitize sim (Scenario.drr_paper_design ()))

(* ------------------------------------------------------------------ *)
(* EXP-INGEST: codec sizes and sharded online ingest                   *)

module Jsonl_sink = Dmm_obs.Jsonl_sink
module Binary_sink = Dmm_obs.Binary_sink
module Ingest = Dmm_engine.Ingest
module Registry = Dmm_obs.Registry

type ingest_report = {
  ing_events : int;  (** events in the rendered DRR/Lea stream *)
  ing_jsonl_bytes : int;
  ing_binary_bytes : int;
  ing_identical : bool;  (** both files decode to the same entries *)
  ing_streams : int;
}

(* One observed DRR replay under Lea is rendered once through both
   codecs; a digest fold proves the two encodings decode to identical
   entries, and [ing_streams] copies of the binary stream are pushed
   through the full [dmm serve] pipeline (sanitizer + registry +
   histogram + lifetime sinks) sharded across the pool. *)
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
  let summaries =
    Pool.map (Array.init ing_streams Fun.id) (fun _ ->
        must (Ingest.run_source ctx (Stream.source_of_string data)))
  in
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
  Printf.printf "  sharded ingest: %d streams  %d events  %d diagnostics\n"
    ing_streams total_events total_diags;
  { ing_events; ing_jsonl_bytes; ing_binary_bytes; ing_identical; ing_streams }

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

(* Exact fields only, so the file is identical under any DMM_JOBS and a
   quick run must reproduce the committed one byte for byte. *)
let write_results ~(obs : obs_report) ~(ingest : ingest_report) tables =
  let oc = open_out "BENCH_results.json" in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"dmm-bench/3\",\n";
  p "  \"quick\": %b,\n" quick;
  p "  \"obs\": {\n";
  p "    \"identical\": %b,\n" obs.obs_identical;
  p "    \"drr_lea_events\": %d\n" obs.obs_events;
  p "  },\n";
  p "  \"ingest\": {\n";
  p "    \"events\": %d,\n" ingest.ing_events;
  p "    \"jsonl_bytes\": %d,\n" ingest.ing_jsonl_bytes;
  p "    \"binary_bytes\": %d,\n" ingest.ing_binary_bytes;
  p "    \"identical\": %b,\n" ingest.ing_identical;
  p "    \"streams\": %d\n" ingest.ing_streams;
  p "  },\n";
  p "  \"peak_footprints\": [\n";
  let rows =
    List.concat_map
      (fun (t : Experiments.table) ->
        List.map (fun (r : Experiments.row) -> (t.workload, r)) t.rows)
      tables
  in
  List.iteri
    (fun i (workload, (r : Experiments.row)) ->
      p "    { \"workload\": \"%s\", \"manager\": \"%s\", \"bytes\": %d, \"ops\": %d }%s\n"
        (Dmm_obs.Json.escape workload) (Dmm_obs.Json.escape r.manager) r.footprint r.ops
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n"

let () =
  Printf.printf "DM management methodology benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  if quick then Experiments.paper_scale := false;
  let tables = table1 () in
  let obs = obs_section tables in
  check_section ();
  let ingest = ingest_section () in
  figure5 ();
  breakdown_section ();
  energy_section ();
  order_ablation ();
  search_comparison ();
  static_comparison ();
  multi_app ();
  micro ();
  ops_summary tables;
  if not quick then bechamel_tests ();
  write_results ~obs ~ingest tables
