(* dmm: command-line front end for the DM-management design methodology.

   Subcommands mirror the methodology's steps and the paper's experiments:
   space, profile, explore, table1, figure5, ablation, trace, replay. *)

module Decision = Dmm_core.Decision
module Constraints = Dmm_core.Constraints
module Profile = Dmm_core.Profile
module Metrics = Dmm_core.Metrics
module Explorer = Dmm_core.Explorer
module Scenario = Dmm_workloads.Scenario
module Experiments = Dmm_workloads.Experiments
module Trace = Dmm_trace.Trace
module Replay = Dmm_trace.Replay
module Footprint_series = Dmm_trace.Footprint_series
module Csv = Dmm_trace.Csv
module Profile_builder = Dmm_trace.Profile_builder
module Probe = Dmm_obs.Probe
module Jsonl_sink = Dmm_obs.Jsonl_sink
module Binary_sink = Dmm_obs.Binary_sink
module Chrome_sink = Dmm_obs.Chrome_sink
module Diag = Dmm_check.Diag
module Stream = Dmm_check.Stream
module Sanitizer = Dmm_check.Sanitizer
module Registry = Dmm_obs.Registry
module Log_hist = Dmm_obs.Log_hist
module Hist_sink = Dmm_obs.Hist_sink
module Frag_sink = Dmm_obs.Frag_sink
module Class_sink = Dmm_obs.Class_sink
module Registry_sink = Dmm_obs.Registry_sink
module Lifetime_sink = Dmm_obs.Lifetime_sink
module Heatmap_sink = Dmm_obs.Heatmap_sink
module Pool = Dmm_engine.Pool
module Ingest = Dmm_engine.Ingest
module Span = Dmm_obs.Span
module Clock = Dmm_obs.Clock
module Log = Dmm_obs.Log
module Trace_ctx = Dmm_obs.Trace_ctx
module Access_log = Dmm_obs.Access_log
module Json = Dmm_obs.Json

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)

type workload = Drr | Reconstruct | Render

let workload_conv =
  let parse = function
    | "drr" -> Ok Drr
    | "reconstruct" | "recon" -> Ok Reconstruct
    | "render" -> Ok Render
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S (drr|reconstruct|render)" s))
  in
  let print ppf w =
    Format.pp_print_string ppf
      (match w with Drr -> "drr" | Reconstruct -> "reconstruct" | Render -> "render")
  in
  Arg.conv (parse, print)

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Case study: drr, reconstruct or render.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use light workload configurations instead of the paper-scale ones.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for the workload.")

(* A count of at least 1. A bad value is a one-line usage error with exit
   124, as a negative --jobs is, not an exception from deep inside a run. *)
let positive flag term =
  Term.(
    ret
      (const (fun n -> if n > 0 then `Ok n else `Error (false, flag ^ " must be positive"))
      $ term))

let trace_for ~quick ~seed workload =
  Experiments.paper_scale := not quick;
  match workload with
  | Drr -> Experiments.drr_trace_seed seed
  | Reconstruct -> Experiments.reconstruct_trace_seed seed
  | Render -> Experiments.render_trace_seed seed

(* The one trace-file entry point for every stream-consuming subcommand
   (check, report, profile): auto-detected format (JSONL or binary),
   incremental iteration in memory bounded by one event, same one-line
   error, same exit code. Returns the event count. *)
let iter_stream_or_exit ~cmd path ~f =
  let die msg =
    prerr_endline (Printf.sprintf "dmm %s: %s" cmd msg);
    exit 2
  in
  match Stream.source_of_file path with
  | Error msg -> die msg
  | Ok src -> (
    match Stream.iter_source src ~f with Error msg -> die msg | Ok n -> n)

let missing_source_exit ~cmd =
  prerr_endline (Printf.sprintf "dmm %s: pass --stream FILE or a workload (-w)" cmd);
  exit 2

(* Every output file is opened and written through here: a path that
   cannot be written is one line, "dmm <cmd>: <path>: <reason>", and exit
   2, like an unreadable input. *)
let write_or_exit ~cmd f =
  try f ()
  with Sys_error msg ->
    prerr_endline (Printf.sprintf "dmm %s: %s" cmd msg);
    exit 2

let hist_json h =
  Printf.sprintf
    {|{"count":%d,"min":%d,"p50":%d,"p90":%d,"p99":%d,"max":%d,"mean":%.2f}|}
    (Log_hist.count h) (Log_hist.min_value h)
    (Log_hist.percentile h 0.5) (Log_hist.percentile h 0.9)
    (Log_hist.percentile h 0.99) (Log_hist.max_value h) (Log_hist.mean h)

(* ------------------------------------------------------------------ *)
(* space                                                               *)

let space_cmd =
  let run dot check =
    if check then begin
      Format.printf "Interdependency rule base@.@.";
      List.iter
        (fun (id, doc) -> Format.printf "  [%s]@.      %s@." id doc)
        Constraints.rules_doc;
      match Constraints.self_check () with
      | Ok () ->
        Format.printf "@.rule base self-check: OK (%d rules, %d dependency edges)@."
          (List.length Constraints.rules_doc)
          (List.length Constraints.dependency_edges)
      | Error problems ->
        Format.printf "@.rule base self-check: FAILED@.";
        List.iter (fun p -> Format.printf "  - %s@." p) problems;
        exit 1
    end
    else if dot then print_string (Constraints.to_dot ())
    else begin
    Format.printf "DM management design space (Figure 1)@.@.";
    List.iter
      (fun tree ->
        Format.printf "%s@." (Decision.tree_name tree);
        List.iter
          (fun leaf -> Format.printf "    - %s@." (Decision.leaf_name leaf))
          (Decision.leaves_of tree))
      Decision.all_trees;
    Format.printf "@.Interdependencies (Figures 2-3)@.@.";
    List.iter
      (fun (id, doc) -> Format.printf "  [%s]@.      %s@." id doc)
      Constraints.rules_doc;
    Format.printf "@.Traversal order for reduced footprint (Section 4.2):@.  %a@."
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " -> ")
         Decision.pp_tree)
      Dmm_core.Order.paper_order
    end
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the interdependency graph (Figure 2) as Graphviz DOT.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Print the interdependency rule base as a table and lint it for              self-consistency (unique ids, every rule documents the trees it couples,              every dependency edge cites a documented rule). Exits non-zero on a lint              failure.")
  in
  Cmd.v (Cmd.info "space" ~doc:"Print the decision trees, their leaves and the interdependency rules.")
    Term.(const run $ dot $ check)

(* ------------------------------------------------------------------ *)
(* explore                                                             *)

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for candidate simulation (0 = honour DMM_JOBS, else the \
           machine's recommended count; 1 = sequential). Results are identical \
           whatever the worker count.")

(* Histogram values are wall-clock measurements, so those lines carry a
   "[time]" prefix: strip them (or pin the job count) and the remaining
   registry lines are byte-for-byte
   reproducible for a fixed grid, whatever DMM_JOBS says. *)
let print_registry reg =
  List.iter
    (function
      | Registry.Counter_view (name, v) | Registry.Gauge_view (name, v) ->
        Format.printf "%s %d@." name v
      | Registry.Histogram_view (name, h) ->
        Format.printf "[time] %s count=%d sum=%d p50=%d p99=%d max=%d@." name
          (Registry.hist_count h) (Registry.hist_sum h)
          (Registry.hist_percentile h 0.5)
          (Registry.hist_percentile h 0.99)
          (Registry.hist_max h))
    (Registry.view reg)

let explore_cmd =
  let run workload quick seed detect jobs check telemetry progress trace_self quiet =
    (* --progress lifts the log level to Info so the lines actually show;
       --quiet wins when both are given. *)
    if progress then (
      match Log.level () with
      | Log.Quiet | Log.Error | Log.Warn -> Log.set_level Log.Info
      | Log.Info | Log.Debug -> ());
    if quiet then Log.set_level Log.Quiet;
    if jobs < 0 then begin
      Printf.eprintf "dmm: --jobs must be non-negative\n";
      exit 124
    end;
    if jobs > 0 then Dmm_engine.Pool.set_jobs jobs
    else begin
      (* Surface a malformed DMM_JOBS before the long exploration starts. *)
      try ignore (Dmm_engine.Pool.jobs ())
      with Invalid_argument msg ->
        Printf.eprintf "dmm: %s\n" msg;
        exit 124
    end;
    (* Zero the engine self-metrics so the printout covers this run only
       (module initialisation may predate us; handles stay valid). *)
    if telemetry then Registry.reset Registry.global;
    let t_start = Clock.now_s () in
    let sims_c = Registry.counter Registry.global "dmm_sim_replays_total" in
    let sims0 = Registry.value sims_c in
    let rounds_total = ref 0 in
    let rounds_done = ref 0 in
    let best_seen = ref max_int in
    let saved_observer = !Explorer.on_progress in
    if progress then
      Explorer.on_progress :=
        (function
        | Explorer.Agenda { rounds } -> rounds_total := rounds
        | Explorer.Round { label } ->
          incr rounds_done;
          Log.info "[progress] round %d/%d (%s)" !rounds_done
            (max !rounds_total !rounds_done) label
        | Explorer.Batch_scored { candidates; best_score } ->
          if best_score < !best_seen then best_seen := best_score;
          let elapsed = Clock.now_s () -. t_start in
          let sims = Registry.value sims_c - sims0 in
          let rate = if elapsed > 0.0 then float_of_int sims /. elapsed else 0.0 in
          let eta =
            if !rounds_done > 0 && !rounds_total > !rounds_done then
              elapsed /. float_of_int !rounds_done
              *. float_of_int (!rounds_total - !rounds_done)
            else 0.0
          in
          Log.info "[progress] batch %d candidates | %d sims (%.1f/s) | best %d B | eta %.1fs"
            candidates sims rate !best_seen eta);
    let tracer =
      match trace_self with
      | None -> None
      | Some _ ->
        let tr = Span.create () in
        Span.set_ambient (Some tr);
        Some tr
    in
    Span.with_span "dmm-explore" (fun () ->
      let trace = trace_for ~quick ~seed workload in
      Format.printf "profiling and exploring (%d events)...@." (Trace.length trace);
      let spec = Scenario.global_design_for ~detect_phases:detect trace in
      Format.printf "@.== chosen design (default) ==@.%a@." Explorer.pp_design spec.default;
      List.iter
        (fun (phase, d) ->
          Format.printf "@.== phase %d override ==@.%a@." phase Explorer.pp_design d)
        spec.overrides;
      Format.printf "@.== footprint comparison ==@.";
      List.iter
        (fun (name, make) ->
          let footprint =
            Span.with_span ("footprint: " ^ name) (fun () -> Scenario.max_footprint trace make)
          in
          Format.printf "  %-20s %9d B@." name footprint)
        (Scenario.baselines () @ [ ("custom (explored)", Scenario.custom_global spec) ]);
      if check then begin
        Format.printf "@.== sanitizer (winning designs) ==@.";
        let sim = Dmm_engine.Sim.create trace in
        List.iter
          (fun (label, d) ->
            let r = Dmm_engine.Sim.sanitize sim d in
            if Sanitizer.clean r then
              Format.printf "  %-18s clean (%d events)@." label r.Sanitizer.events
            else begin
              Format.printf "  %-18s %d diagnostics@." label
                (List.length r.Sanitizer.diags);
              List.iter
                (fun d -> Format.printf "    %s@." (Diag.to_string d))
                r.Sanitizer.diags;
              exit 1
            end)
          (("default", spec.default)
          :: List.map
               (fun (phase, d) -> (Printf.sprintf "phase %d" phase, d))
               spec.overrides)
      end;
      if telemetry then begin
        Format.printf "@.== engine telemetry ==@.";
        print_registry Registry.global
      end);
    let wall = Clock.now_s () -. t_start in
    Span.set_ambient None;
    Explorer.on_progress := saved_observer;
    match (trace_self, tracer) with
    | Some path, Some tr ->
      let sink = Chrome_sink.create ~name:"dmm explore self-trace" ~pid:1 in
      Span.to_chrome tr sink;
      write_or_exit ~cmd:"explore" (fun () -> Chrome_sink.write_file path [ sink ]);
      let wall_us = int_of_float (1e6 *. wall) in
      let cover =
        if wall_us > 0 then 100.0 *. float_of_int (Span.root_us tr) /. float_of_int wall_us
        else 0.0
      in
      Format.printf "self-trace: wrote %s (%d spans, %.1f%% of %.2fs wall)@." path
        (Span.span_count tr) cover wall
    | _ -> ()
  in
  let detect =
    Arg.(
      value & flag
      & info [ "detect-phases" ]
          ~doc:"Recover phase boundaries from the trace instead of using the application's markers.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Replay every winning design with an event probe attached and run the heap              sanitizer (invariants + design conformance) over the recorded stream.              Exits non-zero on any diagnostic.")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:
            "Print the engine self-metrics registry (simulator replays and replayed              events, explorer candidate counts, pool scheduling) after the run. Counter              lines are deterministic for a fixed grid; wall-clock histogram lines carry              a [time] prefix.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Stream live search progress to stderr: one line per refinement round and              per scored candidate batch (candidates, simulations/sec, best footprint so              far, ETA).")
  in
  let trace_self =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-self" ] ~docv:"FILE"
          ~doc:
            "Span-trace the toolchain itself — explorer rounds, candidate batches, pool              scheduling, every simulation, one track per worker domain — and write the              run as Chrome Trace Event JSON to $(docv) (open in chrome://tracing or              Perfetto).")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:
            "Silence stderr chatter (progress lines, warnings); same as DMM_LOG=quiet.              Fatal one-line errors still print.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Run the full methodology on a workload and print the derived custom manager.")
    Term.(
      const run $ workload_arg $ quick_arg $ seed_arg $ detect $ jobs_arg $ check
      $ telemetry $ progress $ trace_self $ quiet)

(* ------------------------------------------------------------------ *)
(* table1                                                              *)

let table1_cmd =
  let run quick seeds probe =
    Experiments.paper_scale := not quick;
    let tables = Experiments.table1 ~probe ~seeds () in
    List.iter (fun t -> Format.printf "%a@." Experiments.pp_table t) tables
  in
  let seeds =
    positive "--seeds" Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"Traces averaged per workload.")
  in
  let probe =
    Arg.(
      value & flag
      & info [ "probe" ]
          ~doc:
            "Attach an observability probe to every replay and report footprint and ops              reconstructed from the event stream (must match the probe-off output              byte for byte).")
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate Table 1 (maximum memory footprint per workload and manager).")
    Term.(const run $ quick_arg $ seeds $ probe)

(* ------------------------------------------------------------------ *)
(* figure5                                                             *)

let figure5_cmd =
  let run quick every csv chrome =
    Experiments.paper_scale := not quick;
    let series = Experiments.figure5 ~every () in
    (match csv with
    | None -> ()
    | Some path ->
      write_or_exit ~cmd:"figure5" (fun () ->
          Csv.write path
            ~header:[ "manager"; "event"; "current_bytes"; "max_bytes" ]
            (List.concat_map
               (fun (name, pts) -> Footprint_series.to_rows ~name pts)
               series));
      Format.printf "wrote %s@." path);
    (match chrome with
    | None -> ()
    | Some path ->
      (* Probe-driven replays: unlike the sampled CSV series, the Chrome
         export sees every single break movement. One sink (= one process
         track) per manager. *)
      let trace = Experiments.drr_trace_seed 42 in
      let sinks =
        List.mapi
          (fun i (name, (make : Scenario.maker)) ->
            let probe = Probe.create () in
            let sink = Chrome_sink.create ~name ~pid:(i + 1) in
            Chrome_sink.attach probe sink;
            Replay.run ~probe trace (make ~probe ());
            sink)
          [
            ("Lea", Scenario.lea);
            ( "custom DM manager 1",
              Scenario.custom_manager (Scenario.drr_paper_design ()) );
            ("Fixed-pool", Scenario.fixed_pool);
            ("Buddy-bitmap", Scenario.buddy_bitmap);
          ]
      in
      write_or_exit ~cmd:"figure5" (fun () -> Chrome_sink.write_file path sinks);
      Format.printf "wrote %s@." path);
    List.iter
      (fun (name, pts) ->
        Format.printf "%s: peak=%d B, %d points@." name (Footprint_series.peak pts)
          (List.length pts))
      series
  in
  let every =
    positive "--every" Arg.(value & opt int 2000 & info [ "every" ] ~doc:"Events between samples.")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the series to a CSV file.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the exact footprint timelines (every break movement, Lea and custom)              as chrome://tracing JSON.")
  in
  Cmd.v
    (Cmd.info "figure5" ~doc:"Regenerate Figure 5 (DM footprint over time, Lea vs custom, DRR).")
    Term.(const run $ quick_arg $ every $ csv $ chrome)

(* ------------------------------------------------------------------ *)
(* ablation                                                            *)

let ablation_cmd =
  let run quick =
    Experiments.paper_scale := not quick;
    List.iter
      (fun (name, fp) -> Format.printf "  %-36s %9d B@." name fp)
      (Experiments.order_ablation ())
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Compare the paper's traversal order against Figure 4's wrong order.")
    Term.(const run $ quick_arg)

(* ------------------------------------------------------------------ *)
(* micro                                                               *)

let micro_cmd =
  let run () =
    let managers =
      Scenario.baselines ()
      @ [ ("custom", Scenario.custom_manager (Scenario.drr_paper_design ())) ]
    in
    List.iter
      (fun (pname, trace) ->
        let peak =
          (Dmm_core.Profile.total (Profile_builder.of_trace trace))
            .Dmm_core.Profile.peak_live_bytes
        in
        Format.printf "%s (peak live %d B)@." pname peak;
        List.iter
          (fun (mname, (make : Scenario.maker)) ->
            let fp = Replay.max_footprint_of trace (make ()) in
            Format.printf "  %-18s %9d B  (%.2fx)@." mname fp
              (float_of_int fp /. float_of_int (max 1 peak)))
          managers)
      (Dmm_workloads.Micro.suite ())
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"Run the adversarial micro-pattern stress suite against every manager.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* breakdown / energy                                                  *)

let breakdown_cmd =
  let run quick =
    Experiments.paper_scale := not quick;
    List.iter
      (fun (workload, rows) ->
        Format.printf "%s@." workload;
        List.iter
          (fun (manager, b) ->
            Format.printf "  %-22s %a@." manager Metrics.pp_breakdown b)
          rows)
      (Experiments.breakdown_table ())
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:"Decompose each manager's peak footprint into payload, tags, padding and free memory (Section 4.1 factors).")
    Term.(const run $ quick_arg)

let energy_cmd =
  let run quick nj_op nj_leak =
    Experiments.paper_scale := not quick;
    let model =
      { Dmm_core.Energy.nj_per_op = nj_op; nj_per_byte_megaevent = nj_leak }
    in
    List.iter
      (fun (workload, rows) ->
        Format.printf "%s@." workload;
        List.iter
          (fun (manager, nj) ->
            Format.printf "  %-22s %a@." manager Dmm_core.Energy.pp_nj nj)
          rows)
      (Experiments.energy_table ~model ())
  in
  let nj_op =
    Arg.(value & opt float 1.0 & info [ "nj-per-op" ] ~doc:"Dynamic energy per manager operation (nJ).")
  in
  let nj_leak =
    Arg.(
      value & opt float 25.0
      & info [ "nj-per-byte-megaevent" ] ~doc:"Leakage per held byte over one million events (nJ).")
  in
  Cmd.v
    (Cmd.info "energy"
       ~doc:"First-order energy comparison of the managers (the COLP'03 extension direction).")
    Term.(const run $ quick_arg $ nj_op $ nj_leak)

(* ------------------------------------------------------------------ *)
(* trace / replay                                                      *)

let manager_conv =
  let parse = function
    | "kingsley" -> Ok `Kingsley
    | "lea" -> Ok `Lea
    | "regions" -> Ok `Regions
    | "obstacks" -> Ok `Obstacks
    | "fixed-pool" -> Ok `Fixed_pool
    | "buddy-bitmap" -> Ok `Buddy_bitmap
    | "custom" -> Ok `Custom
    | s -> Error (`Msg (Printf.sprintf "unknown manager %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | `Kingsley -> "kingsley"
      | `Lea -> "lea"
      | `Regions -> "regions"
      | `Obstacks -> "obstacks"
      | `Fixed_pool -> "fixed-pool"
      | `Buddy_bitmap -> "buddy-bitmap"
      | `Custom -> "custom")
  in
  Arg.conv (parse, print)

let maker_for manager trace : Scenario.maker =
  match manager with
  | `Kingsley -> Scenario.kingsley
  | `Lea -> Scenario.lea
  | `Regions -> Scenario.regions
  | `Obstacks -> Scenario.obstacks
  | `Fixed_pool -> Scenario.fixed_pool
  | `Buddy_bitmap -> Scenario.buddy_bitmap
  | `Custom -> Scenario.custom_global (Scenario.global_design_for trace)

let manager_arg ~default ~doc =
  Arg.(value & opt manager_conv default & info [ "m"; "manager" ] ~docv:"MANAGER" ~doc)

(* A workload's or manager's name as the command line spells it. *)
let conv_name conv v = Format.asprintf "%a" (Arg.conv_printer conv) v

(* The one stream input of check, report and profile. *)
let stream_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stream"; "jsonl" ] ~docv:"FILE"
        ~doc:
          "Analyse a recorded event stream offline — a $(b,dmm trace) export in \
           either JSONL or compact binary framing, auto-detected.")

(* The event source of report and profile: the recorded stream when one
   is given, else a live replay of the workload against the manager.
   Feeds every event to [f] in clock order and returns the event count
   and a label naming the source. *)
let event_source ~cmd ~stream ~workload ~quick ~seed ~manager f =
  match (stream, workload) with
  | Some path, _ ->
    (iter_stream_or_exit ~cmd path ~f:(fun (e : Stream.entry) -> f e.clock e.event), path)
  | None, None -> missing_source_exit ~cmd
  | None, Some w ->
    let trace = trace_for ~quick ~seed w in
    let probe = Probe.create () in
    Probe.attach probe f;
    Replay.run ~probe trace (maker_for manager trace ~probe ());
    ( Probe.clock probe,
      Printf.sprintf "%s/%s live replay" (conv_name workload_conv w)
        (conv_name manager_conv manager) )

let trace_cmd =
  let run workload quick seed out jsonl binary manager =
    let trace = trace_for ~quick ~seed workload in
    (match out with
    | None -> ()
    | Some out ->
      write_or_exit ~cmd:"trace" (fun () -> Trace.save trace out);
      Format.printf "wrote %d events to %s@." (Trace.length trace) out);
    (match (jsonl, binary) with
    | None, None -> ()
    | _ ->
      (* One replay drives every requested export: both sinks hang off the
         same probe, so the two files describe the same run. *)
      let probe = Probe.create () in
      let closers = ref [] in
      Fun.protect ~finally:(fun () -> List.iter (fun f -> f ()) !closers) @@ fun () ->
      let open_sink path =
        let oc = write_or_exit ~cmd:"trace" (fun () -> open_out_bin path) in
        closers := (fun () -> close_out_noerr oc) :: !closers;
        oc
      in
      let jsink =
        Option.map
          (fun path ->
            let sink = Jsonl_sink.create (open_sink path) in
            Jsonl_sink.attach probe sink;
            (path, sink))
          jsonl
      in
      let bsink =
        Option.map
          (fun path ->
            let sink = Binary_sink.create (open_sink path) in
            Binary_sink.attach probe sink;
            (path, sink))
          binary
      in
      Replay.run ~probe trace (maker_for manager trace ~probe ());
      Option.iter
        (fun (path, sink) ->
          Jsonl_sink.flush sink;
          Format.printf "wrote %d probe events to %s@." (Jsonl_sink.events sink) path)
        jsink;
      Option.iter
        (fun (path, sink) ->
          Binary_sink.finish sink;
          Format.printf "wrote %d probe events to %s@." (Binary_sink.events sink) path)
        bsink);
    if out = None && jsonl = None && binary = None then begin
      prerr_endline "dmm trace: nothing to do (pass -o, --jsonl and/or --binary)";
      exit 2
    end
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Replay the recorded trace against $(b,--manager) with an observability              probe attached and export the event stream as JSON Lines.")
  in
  let binary =
    Arg.(
      value
      & opt (some string) None
      & info [ "binary" ] ~docv:"FILE"
          ~doc:
            "Export the same event stream in the compact binary trace framing              (varint events in checksummed chunks — see $(b,dmm convert)).")
  in
  let manager =
    manager_arg ~default:`Lea
      ~doc:
        "Manager observed by $(b,--jsonl)/$(b,--binary): kingsley, lea, regions, obstacks, fixed-pool, buddy-bitmap or custom          (methodology-derived). Default lea."
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Record a workload's allocation trace to a file.")
    Term.(const run $ workload_arg $ quick_arg $ seed_arg $ out $ jsonl $ binary $ manager)

let replay_cmd =
  let run file manager =
    (* An unreadable or invalid trace is bad input: one line and exit 2,
       as in every other command. *)
    let die msg =
      prerr_endline ("dmm replay: " ^ msg);
      exit 2
    in
    let trace = match Trace.load file with Ok trace -> trace | Error msg -> die msg in
    (match Trace.validate trace with
    | Ok () -> ()
    | Error msg -> die (Printf.sprintf "%s: %s" file msg));
    (* A request the manager cannot serve (past its largest class, its
       payload word or 2^61) is a one-line error with exit 1, not a
       crash. *)
    let a =
      try
        let a = maker_for manager trace () in
        Replay.run trace a;
        a
      with Invalid_argument msg ->
        prerr_endline ("dmm replay: " ^ msg);
        exit 1
    in
    Format.printf "events:        %d@." (Trace.length trace);
    Format.printf "max footprint: %d B@." (Dmm_core.Allocator.max_footprint a);
    Format.printf "stats:         %a@." Metrics.pp_snapshot (Dmm_core.Allocator.stats a)
  in
  let file =
    Arg.(required & opt (some string) None & info [ "t"; "trace" ] ~docv:"FILE" ~doc:"Trace file to replay.")
  in
  let manager =
    manager_arg ~default:`Custom
      ~doc:"kingsley, lea, regions, obstacks, fixed-pool, buddy-bitmap or custom (methodology-derived)."
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a recorded trace against a manager and report its footprint.")
    Term.(const run $ file $ manager)

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_cmd =
  let run stream workload quick seed manager strict =
    let finish (report : Sanitizer.report) extra_diags =
      let diags = report.Sanitizer.diags @ extra_diags in
      List.iter (fun d -> Format.printf "%s@." (Diag.to_string d)) diags;
      Format.printf "%d events, %d diagnostics (%s)@." report.Sanitizer.events
        (List.length diags)
        (if report.conformance_checked then "invariants + design conformance"
         else "invariants");
      if diags = [] then Format.printf "clean@." else if strict then exit 1
    in
    match (stream, workload) with
    | Some path, _ ->
      (* File mode: the design behind the stream is unknown, so only the
         integrity gate and the design-independent invariants apply. The
         file is checked incrementally — never materialised. *)
      let st = Sanitizer.start () in
      let (_ : int) =
        iter_stream_or_exit ~cmd:"check" path ~f:(fun e -> Sanitizer.feed st e)
      in
      finish (Sanitizer.finalize st) []
    | None, None -> missing_source_exit ~cmd:"check"
    | None, Some w ->
      (* Manager mode: replay the workload against the manager with the
         sanitizer fed from the probe as each event is emitted, so memory
         is bounded by the live set, not by the stream. For an atomic
         custom design the stream is also conformance-checked against that
         design and the quiesced manager's free structures are
         shape-linted. *)
      let trace = trace_for ~quick ~seed w in
      let spec =
        match manager with `Custom -> Some (Scenario.global_design_for trace) | _ -> None
      in
      let design =
        match spec with
        | Some { Scenario.default; overrides = [] } -> Some default
        | Some _ | None -> None
      in
      (* Attached before the manager exists, so the sanitizer sees the
         stream from clock 0. *)
      let probe = Probe.create () in
      let st = Sanitizer.start ?design () in
      Probe.attach probe (fun clock event -> Sanitizer.feed st { Stream.clock; event });
      let shape_diags =
        match (design, spec) with
        | Some d, _ ->
          let space = Dmm_vmem.Address_space.create ~probe () in
          let m = Dmm_core.Manager.create ~params:d.Explorer.params d.Explorer.vector space in
          Replay.run ~probe trace (Dmm_core.Manager.allocator m);
          Dmm_check.Shape.lint_manager m
        | None, Some spec ->
          Replay.run ~probe trace (Scenario.custom_global spec ~probe ());
          []
        | None, None ->
          Replay.run ~probe trace (maker_for manager trace ~probe ());
          []
      in
      finish (Sanitizer.finalize st) shape_diags
  in
  let workload =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "Record this workload (drr, reconstruct or render), replay it against              $(b,--manager) and sanitize the live event stream.")
  in
  let manager =
    manager_arg ~default:`Custom
      ~doc:"Manager checked in workload mode: kingsley, lea, regions, obstacks, fixed-pool, buddy-bitmap or custom."
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit with status 1 when any diagnostic is reported.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Heap sanitizer: verify allocator invariants and design conformance over a          recorded allocation-event stream, offline or against a live replay.")
    Term.(const run $ stream_arg $ workload $ quick_arg $ seed_arg $ manager $ strict)

(* ------------------------------------------------------------------ *)
(* report                                                              *)

let report_cmd =
  let run stream workload quick seed manager prom json_out =
    let registry = Registry.create () in
    let hist = Hist_sink.create () in
    let frag = Frag_sink.create () in
    let cls = Class_sink.create () in
    let met = Metrics.create () in
    let reg_sink = Registry_sink.create registry in
    let feed clock ev =
      Hist_sink.on_event hist clock ev;
      Frag_sink.on_event frag clock ev;
      Class_sink.on_event cls clock ev;
      Metrics.on_event met clock ev;
      Registry_sink.on_event reg_sink clock ev
    in
    let events, source =
      event_source ~cmd:"report" ~stream ~workload ~quick ~seed ~manager feed
    in
    (* Publish the buffered counter deltas and the aggregated size
       distributions before the registry is read or exported. *)
    Registry_sink.flush reg_sink;
    Registry.merge_log_hist
      (Registry.histogram ~help:"Requested payload sizes" registry
         "dmm_request_size_bytes")
      (Hist_sink.request hist);
    Registry.merge_log_hist
      (Registry.histogram ~help:"Gross block sizes" registry "dmm_gross_size_bytes")
      (Hist_sink.gross hist);
    Registry.merge_log_hist
      (Registry.histogram ~help:"Free-list steps per fit scan" registry
         "dmm_fit_scan_steps")
      (Hist_sink.fit_steps hist);
    let counter name = Registry.value (Registry.counter registry name) in
    let s = Metrics.snapshot met in
    Format.printf "report: %s (%d events)@.@." source events;
    Format.printf "== events ==@.";
    Format.printf "  allocs    %-9d frees     %d@." s.Metrics.allocs
      s.Metrics.frees;
    Format.printf "  splits    %-9d coalesces %d@." s.Metrics.splits
      s.Metrics.coalesces;
    Format.printf "  sbrks     %-9d trims     %d@." (counter "dmm_sbrks_total")
      (counter "dmm_trims_total");
    Format.printf "  fit scans %-9d steps     %d@.@." (counter "dmm_fit_scans_total")
      s.Metrics.ops;
    Format.printf "== size distributions ==@.";
    Format.printf "  request bytes   %a@." Log_hist.pp (Hist_sink.request hist);
    Format.printf "  gross bytes     %a@." Log_hist.pp (Hist_sink.gross hist);
    Format.printf "  fit-scan steps  %a@.@." Log_hist.pp (Hist_sink.fit_steps hist);
    Format.printf "== fragmentation (Section 4.1 factors) ==@.";
    Format.printf "  peak footprint  %d B@." (Frag_sink.peak_footprint frag);
    Format.printf "  final           %a@." Frag_sink.pp_point (Frag_sink.current frag);
    let pts = Array.of_list (Frag_sink.points frag) in
    let n = Array.length pts in
    Format.printf "  series          %d retained points (stride %d)@." n
      (Frag_sink.stride frag);
    let shown = min n 10 in
    for i = 0 to shown - 1 do
      (* Evenly spaced over the retained series, always ending on the
         latest point. *)
      let j = if shown = 1 then n - 1 else i * (n - 1) / (shown - 1) in
      Format.printf "    %a@." Frag_sink.pp_point pts.(j)
    done;
    Format.printf "@.== size classes ==@.";
    let rows = Class_sink.rows cls in
    let max_peak =
      List.fold_left (fun m r -> max m r.Class_sink.peak_live_bytes) 1 rows
    in
    List.iter
      (fun (r : Class_sink.row) ->
        let bar = r.Class_sink.peak_live_bytes * 24 / max_peak in
        let bar = if r.Class_sink.peak_live_bytes > 0 then max 1 bar else 0 in
        Format.printf "  <=%-8d allocs=%-8d frees=%-8d peak=%-9dB |%-24s|@."
          r.Class_sink.size_class r.Class_sink.allocs r.Class_sink.frees
          r.Class_sink.peak_live_bytes (String.make bar '#'))
      rows;
    (match prom with
    | None -> ()
    | Some path ->
      write_or_exit ~cmd:"report" (fun () ->
          let oc = open_out path in
          output_string oc (Registry.to_prometheus registry);
          (* Merge the process-global search-engine self-metrics into the
             same scrape: zero when the report run did no design search, but
             always present so dashboards can rely on the series existing. *)
          output_string oc (Registry.to_prometheus ~prefix:"dmm_search_" Registry.global);
          close_out oc);
      Format.printf "@.wrote %s@." path);
    match json_out with
    | None -> ()
    | Some path ->
      let b = Buffer.create 4096 in
      let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      bpf "{\n  \"source\": \"%s\",\n  \"events\": %d,\n" (Json.escape source) events;
      bpf
        "  \"counts\": {\"allocs\": %d, \"frees\": %d, \"splits\": %d, \"coalesces\": \
         %d, \"sbrks\": %d, \"trims\": %d, \"fit_scans\": %d},\n"
        s.Metrics.allocs s.Metrics.frees s.Metrics.splits
        s.Metrics.coalesces (counter "dmm_sbrks_total") (counter "dmm_trims_total")
        (counter "dmm_fit_scans_total");
      bpf "  \"request_bytes\": %s,\n" (hist_json (Hist_sink.request hist));
      bpf "  \"gross_bytes\": %s,\n" (hist_json (Hist_sink.gross hist));
      bpf "  \"fit_scan_steps\": %s,\n" (hist_json (Hist_sink.fit_steps hist));
      let point_json (p : Frag_sink.point) =
        Printf.sprintf
          {|{"clock":%d,"live_payload":%d,"tag_overhead":%d,"internal_padding":%d,"free_bytes":%d,"footprint":%d}|}
          p.Frag_sink.clock p.Frag_sink.live_payload p.Frag_sink.tag_overhead
          p.Frag_sink.internal_padding p.Frag_sink.free_bytes p.Frag_sink.footprint
      in
      bpf "  \"fragmentation\": {\"peak_footprint\": %d, \"final\": %s, \"points\": [\n"
        (Frag_sink.peak_footprint frag)
        (point_json (Frag_sink.current frag));
      Array.iteri
        (fun i p -> bpf "    %s%s\n" (point_json p) (if i = n - 1 then "" else ","))
        pts;
      bpf "  ]},\n  \"size_classes\": [\n";
      List.iteri
        (fun i (r : Class_sink.row) ->
          bpf
            "    {\"class\": %d, \"allocs\": %d, \"frees\": %d, \"alloc_bytes\": %d, \
             \"freed_bytes\": %d, \"live_bytes\": %d, \"peak_live_bytes\": %d}%s\n"
            r.Class_sink.size_class r.Class_sink.allocs r.Class_sink.frees
            r.Class_sink.alloc_bytes r.Class_sink.freed_bytes r.Class_sink.live_bytes
            r.Class_sink.peak_live_bytes
            (if i = List.length rows - 1 then "" else ","))
        rows;
      bpf "  ]\n}\n";
      write_or_exit ~cmd:"report" (fun () ->
          let oc = open_out path in
          Buffer.output_buffer oc b;
          close_out oc);
      Format.printf "@.wrote %s@." path
  in
  let workload =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "Record this workload (drr, reconstruct or render), replay it against              $(b,--manager) with the analytics sinks attached and report on the live              stream.")
  in
  let manager =
    manager_arg ~default:`Lea
      ~doc:"Manager replayed in workload mode: kingsley, lea, regions, obstacks, fixed-pool, buddy-bitmap or custom."
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:"Write the stream metrics as Prometheus text exposition to $(docv).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full report (counts, percentiles, fragmentation series, size              classes) as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Stream analytics over an allocation-event stream: size percentiles,          fragmentation factors over time and per-size-class attribution, offline          ($(b,--jsonl)) or from a live replay ($(b,-w)).")
    Term.(const run $ stream_arg $ workload $ quick_arg $ seed_arg $ manager $ prom $ json_out)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

let profile_cmd =
  let run stream workload quick seed manager json_out chrome =
    (* One chrome sink carries both the counter tracks (fed the raw
       stream) and the async span bars (fed by the lifetime sink's
       completion callback), so spans line up with the footprint curve. *)
    let chrome_sink =
      Option.map (fun _ -> Chrome_sink.create ~name:"dmm profile" ~pid:1) chrome
    in
    let span_id = ref 0 in
    let on_span (s : Lifetime_sink.span) =
      match chrome_sink with
      | None -> ()
      | Some cs ->
        incr span_id;
        Chrome_sink.async_span cs ~id:!span_id
          ~name:(Printf.sprintf "<=%d B" (Dmm_util.Size.pow2_class s.Lifetime_sink.gross))
          ~start_clock:s.Lifetime_sink.born_clock ~end_clock:s.Lifetime_sink.freed_clock
          ~payload:s.Lifetime_sink.payload
    in
    let lt = Lifetime_sink.create ~on_span () in
    let hm = Heatmap_sink.create () in
    let feed clock ev =
      Lifetime_sink.on_event lt clock ev;
      Heatmap_sink.on_event hm clock ev;
      Option.iter (fun cs -> Chrome_sink.on_event cs clock ev) chrome_sink
    in
    let events, source =
      event_source ~cmd:"profile" ~stream ~workload ~quick ~seed ~manager feed
    in
    let u = Lifetime_sink.unmatched lt in
    let classes = Lifetime_sink.class_rows lt in
    let phases = Lifetime_sink.phase_summaries lt in
    Format.printf "profile: %s (%d events)@.@." source events;
    Format.printf "== spans ==@.";
    Format.printf "  completed %-9d leaked    %d (%d B)@." (Lifetime_sink.spans lt)
      (Lifetime_sink.live_spans lt) (Lifetime_sink.leaked_bytes lt);
    Format.printf "  unmatched frees %d, allocs over live spans %d@.@."
      u.Lifetime_sink.free_without_alloc u.Lifetime_sink.realloc_over_live;
    Format.printf "== lifetimes (clock ticks) ==@.";
    Format.printf "  all spans  %a@.@." Log_hist.pp (Lifetime_sink.lifetimes lt);
    Format.printf "== size classes ==@.";
    List.iter
      (fun (r : Lifetime_sink.class_row) ->
        Format.printf "  <=%-8d spans=%-8d leaked=%-6d %a@." r.Lifetime_sink.size_class
          r.Lifetime_sink.spans r.Lifetime_sink.live Log_hist.pp r.Lifetime_sink.lifetimes)
      classes;
    Format.printf "@.== phases ==@.";
    List.iter
      (fun s -> Format.printf "  %a@." Lifetime_sink.pp_phase_summary s)
      phases;
    Format.printf "@.== address-space heat map ==@.%a@." Heatmap_sink.pp hm;
    (match chrome with
    | None -> ()
    | Some path ->
      write_or_exit ~cmd:"profile" (fun () ->
          Chrome_sink.write_file path (Option.to_list chrome_sink));
      Format.printf "@.wrote %s@." path);
    match json_out with
    | None -> ()
    | Some path ->
      let b = Buffer.create 4096 in
      let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      bpf "{\n  \"source\": \"%s\",\n  \"events\": %d,\n" (Json.escape source) events;
      bpf
        "  \"spans\": {\"completed\": %d, \"leaked\": %d, \"leaked_bytes\": %d, \
         \"free_without_alloc\": %d, \"realloc_over_live\": %d},\n"
        (Lifetime_sink.spans lt) (Lifetime_sink.live_spans lt)
        (Lifetime_sink.leaked_bytes lt) u.Lifetime_sink.free_without_alloc
        u.Lifetime_sink.realloc_over_live;
      bpf "  \"lifetimes\": %s,\n" (hist_json (Lifetime_sink.lifetimes lt));
      bpf "  \"size_classes\": [\n";
      List.iteri
        (fun i (r : Lifetime_sink.class_row) ->
          bpf
            "    {\"class\": %d, \"spans\": %d, \"leaked\": %d, \"leaked_bytes\": %d, \
             \"lifetimes\": %s}%s\n"
            r.Lifetime_sink.size_class r.Lifetime_sink.spans r.Lifetime_sink.live
            r.Lifetime_sink.leaked_bytes
            (hist_json r.Lifetime_sink.lifetimes)
            (if i = List.length classes - 1 then "" else ","))
        classes;
      bpf "  ],\n  \"phases\": [\n";
      List.iteri
        (fun i (s : Lifetime_sink.phase_summary) ->
          bpf
            "    {\"phase\": %d, \"spans\": %d, \"contained\": %d, \"escaped\": %d, \
             \"leaked\": %d, \"p50\": %d, \"p99\": %d, \"max\": %d}%s\n"
            s.Lifetime_sink.s_phase s.Lifetime_sink.s_spans s.Lifetime_sink.s_contained
            s.Lifetime_sink.s_escaped s.Lifetime_sink.s_leaked
            s.Lifetime_sink.s_p50_lifetime s.Lifetime_sink.s_p99_lifetime
            s.Lifetime_sink.s_max_lifetime
            (if i = List.length phases - 1 then "" else ","))
        phases;
      let g = Heatmap_sink.grid hm in
      bpf "  ],\n  \"heatmap\": {\"cols\": %d, \"addr_per_col\": %d, \"clock_per_row\": %d, \"rows\": [\n"
        g.Heatmap_sink.g_cols g.Heatmap_sink.g_addr_per_col g.Heatmap_sink.g_clock_per_row;
      let nrows = List.length g.Heatmap_sink.g_rows in
      let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
      List.iteri
        (fun i (r : Heatmap_sink.row) ->
          let free =
            String.concat ","
              (List.init g.Heatmap_sink.g_cols (fun c ->
                   string_of_int (Heatmap_sink.free_in g r c)))
          in
          bpf
            "    {\"clock\": %d, \"brk\": %d, \"live\": [%s], \"overhead\": [%s], \
             \"free\": [%s]}%s\n"
            r.Heatmap_sink.r_clock r.Heatmap_sink.r_brk (ints r.Heatmap_sink.live)
            (ints r.Heatmap_sink.overhead) free
            (if i = nrows - 1 then "" else ","))
        g.Heatmap_sink.g_rows;
      bpf "  ]}\n}\n";
      write_or_exit ~cmd:"profile" (fun () ->
          let oc = open_out path in
          Buffer.output_buffer oc b;
          close_out oc);
      Format.printf "@.wrote %s@." path
  in
  let workload =
    Arg.(
      value
      & opt (some workload_conv) None
      & info [ "w"; "workload" ] ~docv:"WORKLOAD"
          ~doc:
            "Record this workload (drr, reconstruct or render), replay it against              $(b,--manager) with the span profiler attached and profile the live              stream.")
  in
  let manager =
    manager_arg ~default:`Lea
      ~doc:"Manager replayed in workload mode: kingsley, lea, regions, obstacks, fixed-pool, buddy-bitmap or custom."
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full profile (span counts, lifetime percentiles per size class              and phase, heat-map grid) as JSON to $(docv).")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Write every allocation span as a chrome://tracing async event (plus the              footprint counter tracks) to $(docv).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Span-matching lifetime profiler: pair every alloc with its free, aggregate          lifetime histograms per size class and phase, rasterize address-space          occupancy into a heat map — offline ($(b,--jsonl)) or from a live replay          ($(b,-w)).")
    Term.(
      const run $ stream_arg $ workload $ quick_arg $ seed_arg $ manager $ json_out $ chrome)

(* ------------------------------------------------------------------ *)
(* convert                                                             *)

let format_name = function `Jsonl -> "jsonl" | `Binary -> "binary"

let convert_cmd =
  let run input output to_fmt =
    let die msg =
      prerr_endline (Printf.sprintf "dmm convert: %s" msg);
      exit 2
    in
    let in_fmt = match Stream.file_format input with Error m -> die m | Ok f -> f in
    let out_fmt =
      (* Default to the other encoding: convert round-trips by default. *)
      match to_fmt with
      | Some f -> f
      | None -> ( match in_fmt with `Jsonl -> `Binary | `Binary -> `Jsonl)
    in
    match Stream.source_of_file input with
    | Error m -> die m
    | Ok src -> (
      let oc = write_or_exit ~cmd:"convert" (fun () -> open_out_bin output) in
      let result =
        match out_fmt with
        | `Binary ->
          let sink = Binary_sink.create oc in
          let r =
            Stream.iter_source src ~f:(fun (e : Stream.entry) ->
                Binary_sink.on_event sink e.Stream.clock e.Stream.event)
          in
          if Result.is_ok r then Binary_sink.finish sink;
          r
        | `Jsonl ->
          let sink = Jsonl_sink.create oc in
          let r =
            Stream.iter_source src ~f:(fun (e : Stream.entry) ->
                Jsonl_sink.on_event sink e.Stream.clock e.Stream.event)
          in
          Jsonl_sink.flush sink;
          r
      in
      close_out oc;
      match result with
      | Error m ->
        (* Never leave a half-written output behind a failed decode. *)
        (try Sys.remove output with Sys_error _ -> ());
        die m
      | Ok n ->
        Format.printf "converted %d events: %s (%s) -> %s (%s)@." n input
          (format_name in_fmt) output (format_name out_fmt))
  in
  let input =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "in" ] ~docv:"FILE" ~doc:"Input event stream (format auto-detected).")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let to_fmt =
    Arg.(
      value
      & opt (some (enum [ ("binary", `Binary); ("jsonl", `Jsonl) ])) None
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:
            "Target encoding: $(b,binary) or $(b,jsonl). Default: the opposite of the              input's encoding.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Re-encode a recorded event stream between JSON Lines and the compact binary          trace framing. Both directions are lossless: check/report/profile produce          identical output on either encoding.")
    Term.(const run $ input $ output $ to_fmt)

(* ------------------------------------------------------------------ *)
(* serve / feed / scrape                                               *)

(* Listen/connect addresses: a path (contains '/' or ends in ".sock") is
   a Unix-domain socket; a bare integer is a TCP port on 127.0.0.1;
   anything else is HOST:PORT. *)
type addr = AUnix of string | ATcp of string * int

let parse_addr s =
  if String.contains s '/' || Filename.check_suffix s ".sock" then Ok (AUnix s)
  else
    match int_of_string_opt s with
    | Some port -> Ok (ATcp ("127.0.0.1", port))
    | None -> (
      match String.rindex_opt s ':' with
      | None -> Error (Printf.sprintf "bad address %S (PATH, PORT or HOST:PORT)" s)
      | Some i -> (
        let host = String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | None -> Error (Printf.sprintf "bad port in address %S" s)
        | Some port -> Ok (ATcp (host, port))))

let sockaddr_of = function
  | AUnix path -> Unix.ADDR_UNIX path
  | ATcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | exception Not_found -> failwith (Printf.sprintf "unknown host %S" host)
        | h -> h.Unix.h_addr_list.(0))
    in
    Unix.ADDR_INET (ip, port)

let listen_on addr =
  (match addr with
  | AUnix path when Sys.file_exists path -> Sys.remove path
  | _ -> ());
  let sock =
    Unix.socket
      (match addr with AUnix _ -> Unix.PF_UNIX | ATcp _ -> Unix.PF_INET)
      Unix.SOCK_STREAM 0
  in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (sockaddr_of addr);
  Unix.listen sock 64;
  sock

let rec accept_retry sock =
  try Unix.accept sock
  with Unix.Unix_error (Unix.EINTR, _, _) -> accept_retry sock

(* Minimal HTTP endpoint beside the ingest socket: /metrics (Prometheus
   text exposition), /healthz (SLO verdict, 200 or 503), /statusz (flat
   JSON snapshot). Any other path answers as /metrics so old scrapers
   keep working. Polls [running] between accepts so shutdown never
   races a blocking accept. *)
let request_path ic =
  let first = try String.trim (input_line ic) with End_of_file -> "" in
  (try
     while String.trim (input_line ic) <> "" do
       ()
     done
   with End_of_file -> ());
  match String.split_on_char ' ' first with
  | _meth :: path :: _ when path <> "" -> path
  | _ -> "/metrics"

let metrics_loop ingest sock running =
  let registry = Ingest.registry ingest in
  while Atomic.get running do
    match Unix.select [ sock ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ ->
      let fd, _ = accept_retry sock in
      (try
         let ic = Unix.in_channel_of_descr fd in
         let oc = Unix.out_channel_of_descr fd in
         let status, ctype, body =
           match request_path ic with
           | "/healthz" -> (
             match Ingest.health ingest with
             | Ingest.Healthy -> ("200 OK", "text/plain", "ok\n")
             | Ingest.Degraded why -> ("503 Service Unavailable", "text/plain", "degraded: " ^ why ^ "\n"))
           | "/statusz" -> ("200 OK", "application/json", Ingest.status_json ingest ^ "\n")
           | _ -> ("200 OK", "text/plain; version=0.0.4", Registry.to_prometheus registry)
         in
         Printf.fprintf oc
           "HTTP/1.1 %s\r\n\
            Content-Type: %s\r\n\
            Content-Length: %d\r\n\
            Connection: close\r\n\
            \r\n\
            %s"
           status ctype (String.length body) body;
         flush oc
       with Sys_error _ | Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  done;
  Unix.close sock

let serve_cmd =
  let run listen metrics exit_after jobs trace_file access_log stall_ms slo_error_rate
      slo_p99_ms =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let die msg =
      prerr_endline (Printf.sprintf "dmm serve: %s" msg);
      exit 2
    in
    let laddr = match parse_addr listen with Ok a -> a | Error m -> die m in
    let ingest = Ingest.create (Registry.create ()) in
    let registry = Ingest.registry ingest in
    (try Ingest.set_slo ingest ~max_error_rate:slo_error_rate ~max_p99_us:(slo_p99_ms * 1000) ()
     with Invalid_argument m -> die m);
    let tracer =
      match trace_file with
      | None -> None
      | Some _ ->
        let tr = Span.create () in
        Span.set_ambient (Some tr);
        Some tr
    in
    let alog =
      match access_log with
      | None -> None
      | Some path -> (
        match Access_log.open_file path with
        | Ok l -> Some l
        | Error m -> die m)
    in
    let lsock = try listen_on laddr with Unix.Unix_error (e, _, _) -> die (Unix.error_message e) in
    Printf.printf "serve: ingest on %s\n%!" listen;
    let running = Atomic.make true in
    let metrics_domain =
      match metrics with
      | None -> None
      | Some m ->
        let maddr = match parse_addr m with Ok a -> a | Error msg -> die msg in
        let msock =
          try listen_on maddr with Unix.Unix_error (e, _, _) -> die (Unix.error_message e)
        in
        Printf.printf "serve: metrics on %s\n%!" m;
        Some (Domain.spawn (fun () -> metrics_loop ingest msock running))
    in
    (* Connections are sharded over worker domains round-robin, one
       queue per shard: each stream is pinned to a worker, whose
       pipeline publishes into the shared (atomic) registry, and the
       per-shard depth gauges show where backpressure sits. Each queued
       element carries its enqueue time so the pop measures the
       accept-queue wait. *)
    let jobs = match jobs with Some j -> max 1 j | None -> Pool.jobs () in
    Ingest.set_shards ingest jobs;
    let queues =
      Array.init jobs (fun _ ->
          ( (Queue.create () : (Unix.file_descr * float) option Queue.t),
            Mutex.create (),
            Condition.create () ))
    in
    let push i v =
      let q, m, c = queues.(i) in
      Mutex.lock m;
      Queue.push v q;
      Condition.signal c;
      Mutex.unlock m
    in
    let pop i =
      let q, m, c = queues.(i) in
      Mutex.lock m;
      while Queue.is_empty q do
        Condition.wait c m
      done;
      let v = Queue.pop q in
      Mutex.unlock m;
      v
    in
    (* The slow-shard watchdog: a queue that holds work without
       draining for [stall_ms] bumps dmm_ingest_stalls_total and warns,
       once per stall window. *)
    let watchdog =
      if stall_ms <= 0 then None
      else
        Some
          (Domain.spawn (fun () ->
               let last_depth = Array.make jobs 0 in
               let since = Array.make jobs (Clock.now_s ()) in
               let limit = float_of_int stall_ms /. 1000.0 in
               while Atomic.get running do
                 Unix.sleepf (Float.max 0.01 (limit /. 4.0));
                 let now = Clock.now_s () in
                 for i = 0 to jobs - 1 do
                   let d = Ingest.shard_depth ingest i in
                   if d = 0 || d < last_depth.(i) then since.(i) <- now
                   else if now -. since.(i) >= limit then begin
                     Ingest.note_stall ingest;
                     Log.warn "serve: shard %d stalled: %d connections queued for %dms" i
                       d stall_ms;
                     since.(i) <- now
                   end;
                   last_depth.(i) <- d
                 done
               done))
    in
    let handle shard ~wait_us fd =
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let t_start = Unix.gettimeofday () in
      (* Peek the first four bytes: a "DMMC" trace-context preamble is
         consumed here, anything else is pushed back in front of the
         payload source. *)
      let head = Bytes.create 4 in
      let rec peek off =
        if off >= 4 then off
        else
          match input ic head off (4 - off) with 0 -> off | n -> peek (off + n)
      in
      let n = try peek 0 with Sys_error _ -> 0 in
      let sniff = Bytes.sub_string head 0 n in
      let ctx, prefix, preamble_bytes =
        if sniff = Trace_ctx.magic then begin
          let line = sniff ^ Trace_ctx.input_preamble ic in
          match Trace_ctx.of_preamble_line line with
          | Ok c -> (Some c, "", String.length line)
          | Error _ -> (None, line, 0)
        end
        else (None, sniff, 0)
      in
      let count = ref 0 in
      let src = Stream.source_of_channel ~prefix ~count ic in
      let sargs =
        match ctx with
        | None -> []
        | Some c ->
          [ ("trace_id", c.Trace_ctx.trace_id); ("parent_span", c.Trace_ctx.span_id) ]
      in
      let outcome, stats =
        Span.with_span ~args:[ ("shard", shard) ] ~sargs "conn" @@ fun () ->
        Ingest.run_source_observed ingest src
      in
      let bytes = !count + preamble_bytes in
      Ingest.add_bytes ingest bytes;
      let reply, ok, err_msg =
        match outcome with
        | Ok { Ingest.report; _ } ->
          ( Printf.sprintf "ok %d events, %d diagnostics\n" report.Sanitizer.events
              (List.length report.Sanitizer.diags),
            true,
            "" )
        | Error m ->
          Log.err "serve: stream error: %s" m;
          (Printf.sprintf "error: %s\n" m, false, m)
      in
      (try
         output_string oc reply;
         flush oc
       with Sys_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match alog with
      | None -> ()
      | Some l ->
        Access_log.(
          write l
            [
              ("ts", S (iso8601 t_start));
              ("shard", I shard);
              ("trace_id", S (match ctx with Some c -> c.Trace_ctx.trace_id | None -> ""));
              ("status", S (if ok then "ok" else "error"));
              ("error", S err_msg);
              ("events", I stats.Ingest.st_events);
              ("bytes", I bytes);
              ("wait_us", I wait_us);
              ("decode_us", I stats.Ingest.st_decode_us);
              ("feed_us", I stats.Ingest.st_feed_us);
              ("total_us", I stats.Ingest.st_total_us);
            ])
    in
    let worker shard =
      let rec loop () =
        match pop shard with
        | None -> ()
        | Some (fd, enqueued) ->
          let wait_us = max 0 (int_of_float (1e6 *. (Clock.now_s () -. enqueued))) in
          Ingest.shard_dequeue ingest shard ~wait_us;
          (* Recorded before the conn span opens, so the wait renders as
             a root-level bar the conn span follows — a child would have
             its start clamped up to the conn begin and vanish. *)
          if Span.enabled () then begin
            let pop_us = Span.ambient_now_us () in
            Span.record "queue.wait"
              ~args:[ ("shard", shard) ]
              ~start_us:(max 0 (pop_us - wait_us))
              ~end_us:pop_us
          end;
          (try handle shard ~wait_us fd
           with _ -> ( try Unix.close fd with Unix.Unix_error _ -> ()));
          loop ()
      in
      loop ()
    in
    let workers = Array.init jobs (fun i -> Domain.spawn (fun () -> worker i)) in
    let accepted = ref 0 in
    let continue () = match exit_after with None -> true | Some n -> !accepted < n in
    while continue () do
      let fd, _ = accept_retry lsock in
      let shard = !accepted mod jobs in
      incr accepted;
      Ingest.shard_enqueue ingest shard;
      push shard (Some (fd, Clock.now_s ()))
    done;
    for i = 0 to jobs - 1 do
      push i None
    done;
    Array.iter Domain.join workers;
    Atomic.set running false;
    Option.iter Domain.join metrics_domain;
    Option.iter Domain.join watchdog;
    Unix.close lsock;
    (match laddr with AUnix path -> ( try Sys.remove path with Sys_error _ -> ()) | ATcp _ -> ());
    Option.iter Access_log.close alog;
    let v name = Registry.value (Registry.counter registry name) in
    Printf.printf "serve: done: %d streams, %d events, %d diagnostics, %d stream errors\n"
      (v "dmm_ingest_streams_total") (v "dmm_events_total")
      (v "dmm_ingest_diagnostics_total")
      (v "dmm_ingest_errors_total");
    match (tracer, trace_file) with
    | Some tr, Some file ->
      Span.set_ambient None;
      let sink = Chrome_sink.create ~name:"dmm serve" ~pid:1 in
      Span.to_chrome tr sink;
      write_or_exit ~cmd:"serve" (fun () -> Chrome_sink.write_file file [ sink ]);
      Printf.printf "serve: trace: wrote %s (%d spans)\n%!" file (Span.span_count tr)
    | _ -> ()
  in
  let listen =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Accept event streams on $(docv): a Unix-socket path, a TCP port (on              127.0.0.1) or HOST:PORT. One connection carries one stream, JSONL or              binary, auto-detected; the reply is one line, $(b,ok ...) or              $(b,error: ...).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"ADDR"
          ~doc:
            "Expose the aggregated registry as Prometheus text exposition over HTTP on              $(docv) (same address forms as $(b,--listen)).")
  in
  let exit_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "exit-after" ] ~docv:"N"
          ~doc:
            "Shut down cleanly after $(docv) streams (soak tests); default: run              forever.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains sharding the incoming streams. Default: the engine pool              width ($(b,DMM_JOBS) or the host's core count).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a merged Chrome trace of the daemon's own work on exit: one track              per worker domain, with queue.wait/conn/decode/feed/finalize spans per              connection. Connections fed with $(b,dmm feed --ctx) carry their trace              context into the conn span's args.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one flat JSON line per finished connection: timestamp, shard,              trace id, verdict, event/byte counts and per-stage latencies.")
  in
  let stall_ms =
    Arg.(
      value & opt int 1000
      & info [ "stall-ms" ] ~docv:"MS"
          ~doc:
            "Slow-shard watchdog threshold: a shard queue that holds connections              without draining for $(docv) bumps $(b,dmm_ingest_stalls_total) and logs              a warning. 0 disables the watchdog.")
  in
  let slo_error_rate =
    Arg.(
      value & opt float 0.05
      & info [ "slo-error-rate" ] ~docv:"RATE"
          ~doc:
            "Health gate: $(b,/healthz) reports degraded when errored streams exceed              this fraction of all streams (0..1).")
  in
  let slo_p99_ms =
    Arg.(
      value & opt int 0
      & info [ "slo-p99-ms" ] ~docv:"MS"
          ~doc:
            "Health gate: $(b,/healthz) reports degraded when the end-to-end ingest              p99 exceeds $(docv) milliseconds. 0 disables the latency gate.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running ingest daemon: accept concurrent allocation-event streams          (JSONL or binary, auto-detected per connection), run the sanitizer and the          telemetry and lifetime sinks online on each, and aggregate everything into          one registry for Prometheus scraping — with /healthz and /statusz beside          /metrics, per-shard backpressure gauges, an optional access log and an          optional Chrome trace of the daemon itself.")
    Term.(
      const run $ listen $ metrics $ exit_after $ jobs $ trace $ access_log $ stall_ms
      $ slo_error_rate $ slo_p99_ms)

let feed_cmd =
  let run to_addr parallel with_ctx trace_file files =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let die msg =
      prerr_endline (Printf.sprintf "dmm feed: %s" msg);
      exit 2
    in
    let addr = match parse_addr to_addr with Ok a -> a | Error m -> die m in
    let sa = try sockaddr_of addr with Failure m -> die m in
    let tracer =
      match trace_file with
      | None -> None
      | Some _ ->
        let tr = Span.create () in
        Span.set_ambient (Some tr);
        Some tr
    in
    (* One trace per invocation, one child context per file: the daemon
       records each child's span id on its conn span, so the feeder's
       and the daemon's Chrome traces link by trace id. *)
    let root_ctx = if with_ctx then Some (Trace_ctx.make ()) else None in
    let connect () =
      (* The daemon may still be binding (soak scripts start both at
         once): retry briefly before giving up. *)
      let sock () =
        Unix.socket
          (match addr with AUnix _ -> Unix.PF_UNIX | ATcp _ -> Unix.PF_INET)
          Unix.SOCK_STREAM 0
      in
      let rec go tries =
        let s = sock () in
        match Unix.connect s sa with
        | () -> s
        | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when tries > 0 ->
          Unix.close s;
          Unix.sleepf 0.05;
          go (tries - 1)
        | exception e ->
          Unix.close s;
          raise e
      in
      go 100
    in
    let feed_one (file, fctx) =
      let sargs =
        match fctx with
        | None -> [ ("file", file) ]
        | Some c ->
          [
            ("file", file);
            ("trace_id", c.Trace_ctx.trace_id);
            ("span_id", c.Trace_ctx.span_id);
          ]
      in
      Span.with_span ~sargs "feed" @@ fun () ->
      match open_in_bin file with
      | exception Sys_error m -> Printf.sprintf "error: %s" m
      | ic -> (
        match connect () with
        | exception Unix.Unix_error (e, _, _) ->
          close_in_noerr ic;
          Printf.sprintf "error: %s" (Unix.error_message e)
        | s ->
          Fun.protect ~finally:(fun () -> ( try Unix.close s with Unix.Unix_error _ -> ()))
          @@ fun () ->
          let write_all b len =
            let rec go off = if off < len then go (off + Unix.write s b off (len - off)) in
            go 0
          in
          let buf = Bytes.create 65536 in
          let rec copy () =
            let n = input ic buf 0 (Bytes.length buf) in
            if n > 0 then begin
              write_all buf n;
              copy ()
            end
          in
          let r =
            match
              (match fctx with
              | None -> ()
              | Some c ->
                let p = Trace_ctx.preamble c in
                write_all (Bytes.of_string p) (String.length p));
              copy ()
            with
            | () ->
              close_in_noerr ic;
              Unix.shutdown s Unix.SHUTDOWN_SEND;
              let rc = Unix.in_channel_of_descr s in
              (try String.trim (input_line rc) with End_of_file -> "error: no reply")
            | exception (Sys_error m | Failure m) ->
              close_in_noerr ic;
              Printf.sprintf "error: %s" m
            | exception Unix.Unix_error (e, _, _) ->
              close_in_noerr ic;
              Printf.sprintf "error: %s" (Unix.error_message e)
          in
          r)
    in
    let files = Array.of_list files in
    let work =
      Array.map
        (fun file -> (file, Option.map (fun r -> Trace_ctx.child r) root_ctx))
        files
    in
    let replies = if parallel then Pool.map work feed_one else Array.map feed_one work in
    let failed = ref false in
    Array.iteri
      (fun i reply ->
        if String.length reply >= 5 && String.sub reply 0 5 = "error" then failed := true;
        Printf.printf "feed: %s: %s\n" files.(i) reply)
      replies;
    (match (tracer, trace_file) with
    | Some tr, Some file ->
      Span.set_ambient None;
      let sink = Chrome_sink.create ~name:"dmm feed" ~pid:2 in
      Span.to_chrome tr sink;
      write_or_exit ~cmd:"feed" (fun () -> Chrome_sink.write_file file [ sink ]);
      Printf.printf "feed: trace: wrote %s (%d spans)\n%!" file (Span.span_count tr)
    | _ -> ());
    if !failed then exit 1
  in
  let to_addr =
    Arg.(
      required
      & opt (some string) None
      & info [ "to" ] ~docv:"ADDR" ~doc:"The $(b,dmm serve) ingest address to feed.")
  in
  let parallel =
    Arg.(
      value & flag
      & info [ "parallel" ]
          ~doc:"Feed all files concurrently (one engine-pool domain per file).")
  in
  let with_ctx =
    Arg.(
      value & flag
      & info [ "ctx" ]
          ~doc:
            "Prefix every stream with a W3C-traceparent-style trace-context preamble              (one trace per invocation, one child span id per file), so the daemon's              $(b,--trace) output links back to this feeder.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace of the feeder side (one span per file sent,              carrying the trace/span ids sent with $(b,--ctx)).")
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"Event-stream files to send.")
  in
  Cmd.v
    (Cmd.info "feed"
       ~doc:
         "Send recorded event-stream files to a running $(b,dmm serve) daemon, one          connection per file, and print each stream's verdict.")
    Term.(const run $ to_addr $ parallel $ with_ctx $ trace $ files)

(* One-shot HTTP GET against a serve endpoint: receive/send timeout via
   socket options (a wedged daemon yields a one-line error, not a hang)
   and bounded connect retries at 50ms apart (soak scripts race the
   daemon's bind). *)
let http_get ?(timeout = 5.0) ?(retries = 0) addr_s path =
  match parse_addr addr_s with
  | Error m -> Error m
  | Ok addr -> (
    match sockaddr_of addr with
    | exception Failure m -> Error m
    | sa -> (
      let sock () =
        Unix.socket
          (match addr with AUnix _ -> Unix.PF_UNIX | ATcp _ -> Unix.PF_INET)
          Unix.SOCK_STREAM 0
      in
      let rec connect tries =
        let s = sock () in
        match Unix.connect s sa with
        | () -> Ok s
        | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close s with Unix.Unix_error _ -> ());
          if tries > 0 then begin
            Unix.sleepf 0.05;
            connect (tries - 1)
          end
          else Error (Unix.error_message e)
      in
      match connect retries with
      | Error _ as e -> e
      | Ok s ->
        Fun.protect ~finally:(fun () -> ( try Unix.close s with Unix.Unix_error _ -> ()))
        @@ fun () ->
        (try
           if timeout > 0.0 then begin
             Unix.setsockopt_float s Unix.SO_RCVTIMEO timeout;
             Unix.setsockopt_float s Unix.SO_SNDTIMEO timeout
           end
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        let oc = Unix.out_channel_of_descr s in
        let ic = Unix.in_channel_of_descr s in
        (match
           Printf.fprintf oc "GET %s HTTP/1.1\r\nHost: dmm\r\nConnection: close\r\n\r\n"
             path;
           flush oc;
           (* Skip the response head, slurp the body. *)
           (try
              while String.trim (input_line ic) <> "" do
                ()
              done
            with End_of_file -> ());
           let b = Buffer.create 4096 in
           let chunk = Bytes.create 65536 in
           let rec slurp () =
             let n = input ic chunk 0 (Bytes.length chunk) in
             if n > 0 then begin
               Buffer.add_subbytes b chunk 0 n;
               slurp ()
             end
           in
           (try slurp () with End_of_file -> ());
           Buffer.contents b
         with
        | body -> Ok body
        | exception Sys_error _ ->
          Error (Printf.sprintf "timed out after %.1fs" timeout)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
          Error (Printf.sprintf "timed out after %.1fs" timeout)
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))))

let scrape_cmd =
  let run addr_s timeout retries path =
    let die msg =
      prerr_endline (Printf.sprintf "dmm scrape: %s" msg);
      exit 2
    in
    match http_get ~timeout ~retries addr_s path with
    | Ok body -> print_string body
    | Error m -> die m
  in
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR" ~doc:"The $(b,dmm serve --metrics) address.")
  in
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Give up with a one-line error if the daemon does not answer within              $(docv) seconds. 0 waits forever.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry a refused connection up to $(docv) times, 50ms apart.")
  in
  let path =
    Arg.(
      value & opt string "/metrics"
      & info [ "path" ] ~docv:"PATH"
          ~doc:"Endpoint to fetch: $(b,/metrics), $(b,/healthz) or $(b,/statusz).")
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch and print one endpoint of a running $(b,dmm serve) — the Prometheus          exposition by default, or $(b,/healthz)/$(b,/statusz) via $(b,--path).")
    Term.(const run $ addr $ timeout $ retries $ path)

(* --- dmm top: live operator view ------------------------------------------- *)

(* Field scanners over the daemon's flat /statusz JSON (we control the
   producer — scalars plus one int array, no nesting, no escapes in the
   fields we read). *)
let top_find body key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length body and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub body i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

let top_raw body key =
  match top_find body key with
  | None -> None
  | Some j ->
    if j >= String.length body then None
    else if body.[j] = '"' then (
      match String.index_from_opt body (j + 1) '"' with
      | None -> None
      | Some k -> Some (String.sub body (j + 1) (k - j - 1)))
    else if body.[j] = '[' then (
      match String.index_from_opt body j ']' with
      | None -> None
      | Some k -> Some (String.sub body (j + 1) (k - j - 1)))
    else begin
      let k = ref j in
      while !k < String.length body && body.[!k] <> ',' && body.[!k] <> '}' do
        incr k
      done;
      Some (String.sub body j (!k - j))
    end

let top_str body key = Option.value ~default:"" (top_raw body key)
let top_int body key = Option.value ~default:0 (Option.bind (top_raw body key) int_of_string_opt)
let top_float body key = Option.value ~default:0.0 (Option.bind (top_raw body key) float_of_string_opt)

let top_cmd =
  let run addr interval count plain =
    let die msg =
      prerr_endline (Printf.sprintf "dmm top: %s" msg);
      exit 2
    in
    if interval <= 0.0 then die "interval must be positive";
    let prev = ref None in
    let rec poll i =
      match http_get ~timeout:5.0 ~retries:20 addr "/statusz" with
      | Error m -> die m
      | Ok body ->
        let now = Clock.now_s () in
        let events = top_int body "events_total" in
        let rate =
          match !prev with
          | Some (t0, e0) when now > t0 ->
            float_of_int (events - e0) /. (now -. t0)
          | _ -> 0.0
        in
        prev := Some (now, events);
        let status = top_str body "status" in
        let reason = top_str body "reason" in
        if not plain then print_string "\027[2J\027[H";
        Printf.printf "dmm top — %s   status: %s%s   uptime %.1fs\n" addr status
          (if reason = "" then "" else Printf.sprintf " (%s)" reason)
          (top_float body "uptime_s");
        Printf.printf "streams %d (%d active)   errors %d (%.1f%%)   diagnostics %d   stalls %d\n"
          (top_int body "streams_total") (top_int body "active_streams")
          (top_int body "errors_total")
          (100.0 *. top_float body "error_rate")
          (top_int body "diagnostics_total") (top_int body "stalls_total");
        Printf.printf "events %d (%.0f/s)   bytes %d\n" events rate
          (top_int body "bytes_total");
        Printf.printf "ingest p50 %dus  p99 %dus  p99.9 %dus   queue wait p99 %dus\n"
          (top_int body "ingest_p50_us") (top_int body "ingest_p99_us")
          (top_int body "ingest_p999_us")
          (top_int body "queue_wait_p99_us");
        Printf.printf "shard queues [%s]: %s\n%!" (top_str body "shards")
          (let depths = top_str body "queue_depths" in
           if depths = "" then "-"
           else String.concat " " (String.split_on_char ',' depths));
        if count = 0 || i < count then begin
          Unix.sleepf interval;
          poll (i + 1)
        end
    in
    poll 1
  in
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR" ~doc:"The $(b,dmm serve --metrics) address to watch.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"Seconds between polls.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Exit after $(docv) polls; default 0 runs until interrupted.")
  in
  let plain =
    Arg.(
      value & flag
      & info [ "plain" ]
          ~doc:
            "Do not clear the terminal between polls — append one block per poll              (scripts, logs, tests).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live operator view of a running $(b,dmm serve): poll $(b,/statusz) and          render health, throughput, error rate, tail latency and per-shard queue          depths, refreshing in place.")
    Term.(const run $ addr $ interval $ count $ plain)

let () =
  let doc = "Custom dynamic-memory manager design methodology (DATE 2004 reproduction)" in
  let info = Cmd.info "dmm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            space_cmd;
            profile_cmd;
            explore_cmd;
            table1_cmd;
            figure5_cmd;
            ablation_cmd;
            breakdown_cmd;
            energy_cmd;
            micro_cmd;
            trace_cmd;
            replay_cmd;
            check_cmd;
            report_cmd;
            convert_cmd;
            serve_cmd;
            feed_cmd;
            scrape_cmd;
            top_cmd;
          ]))
