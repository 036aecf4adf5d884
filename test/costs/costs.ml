(* Exact replay costs of every allocator core: the six baselines, the
   paper's three custom designs, and the DRR paper design with deferred
   coalescing (D2 = deferred, so its periodic sweep is charged and
   ordered exactly) on the quick seed-42 DRR, reconstruct and render
   traces. Each cell prints the trace's events, the manager's [ops], the
   minor words allocated by [Replay.run] alone, the words it allocated
   straight into the major heap (major words less promoted words: the
   arrays too large for the minor heap), and for the buddy the bitmap
   words its free-block searches read.

   Then the methodology's profiling step alone: per trace, its events and
   the minor and direct major words of [Profile_builder.of_trace].

   Then the serve path, on the quick seed-42 DRR trace's event stream
   under Kingsley (alloc/free heavy) and under Lea (fit-scan heavy),
   encoded with [Binary_sink] as a client of [dmm serve] sends it: per
   stream, its events and the minor words of decoding it alone
   ([Stream.iter_source]) and of decoding it through the whole ingest
   pipeline ([Ingest.run_source]: sanitizer, registry, histogram and
   lifetime sinks). Their difference is what the pipeline allocates.

   Last, the generators: per case study, the events of its quick seed-42
   trace, the words the finished trace holds ([Obj.reachable_words]) in
   all and per event, and the minor and direct major words of
   generating it: the application run the trace records (without the
   simulated work that [Scenario] skips), the recorder, the builder's
   chunks and the one copy into the finished trace.

   On one domain every figure is deterministic, so [dune runtest] diffs
   this output against the committed costs.expected: a slower search or a
   new per-event allocation changes a cell, whatever the host's speed.
   After a deliberate change, [dune promote] records the new figures.
   Minor and major words depend on the compiler, so test/costs/dune
   compares them only under the version named in the header. *)

module Experiments = Dmm_workloads.Experiments
module Scenario = Dmm_workloads.Scenario
module Trace = Dmm_trace.Trace
module Replay = Dmm_trace.Replay
module Allocator = Dmm_core.Allocator
module Buddy_bitmap = Dmm_allocators.Buddy_bitmap
module Address_space = Dmm_vmem.Address_space
module Stream = Dmm_check.Stream
module Ingest = Dmm_engine.Ingest

let workloads () =
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

(* The only row whose manager defers coalescing: no Table 1 design does. *)
let deferred_drr_design () =
  let design = Scenario.drr_paper_design () in
  {
    design with
    Dmm_core.Explorer.vector =
      { Dmm_core.Decision_vector.drr_custom with d2 = Dmm_core.Decision.Deferred };
  }

(* Words allocated straight into the major heap so far: major words
   less promoted words. [Gc.counters] counts the words allocated since the
   last major slice, which [Gc.quick_stat]'s major words leave out. Read
   before [Gc.minor_words] opens a window and after it closes, so the
   tuple [Gc.counters] allocates falls outside both. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* A fresh manager, and how to read its bitmap words afterwards. *)
let instantiate name (make : Scenario.maker) =
  if name = "Buddy-bitmap" then
    let b = Buddy_bitmap.create (Address_space.create ()) in
    (Buddy_bitmap.allocator b, fun () -> string_of_int (Buddy_bitmap.words_read b))
  else (make (), fun () -> "-")

let () =
  Experiments.paper_scale := false;
  Dmm_engine.Pool.with_jobs 1 @@ fun () ->
  Printf.printf "# minor words under OCaml %s\n" Sys.ocaml_version;
  Printf.printf "%-24s %-18s %7s %9s %10s %11s %11s\n" "workload" "manager" "events" "ops"
    "words_read" "minor_words" "major_words";
  List.iter
    (fun (wname, trace, custom) ->
      List.iter
        (fun (mname, make) ->
          let a, words_read = instantiate mname make in
          let m0 = direct_major_words () in
          let w0 = Gc.minor_words () in
          Replay.run trace a;
          let minor = Gc.minor_words () -. w0 in
          let major = direct_major_words () -. m0 in
          Printf.printf "%-24s %-18s %7d %9d %10s %11.0f %11.0f\n" wname mname
            (Trace.length trace) (Allocator.stats a).ops (words_read ()) minor major)
        (Scenario.baselines ()
        @ [
            ("custom DM manager", custom trace);
            ("custom D2=deferred", Scenario.custom_manager (deferred_drr_design ()));
          ]))
    (workloads ())

let () =
  Printf.printf "\n%-24s %-18s %7s %11s %11s\n" "profile" "stage" "events" "minor_words"
    "major_words";
  List.iter
    (fun (wname, trace, _) ->
      let m0 = direct_major_words () in
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (Dmm_trace.Profile_builder.of_trace trace));
      let minor = Gc.minor_words () -. w0 in
      let major = direct_major_words () -. m0 in
      Printf.printf "%-24s %-18s %7d %11.0f %11.0f\n" wname "of_trace" (Trace.length trace)
        minor major)
    (workloads ())

(* The binary stream a [dmm serve] client sends for one replay. *)
let encode trace (make : Scenario.maker) =
  let path = Filename.temp_file "costs" ".dmmt" in
  let oc = open_out_bin path in
  let sink = Dmm_obs.Binary_sink.create oc in
  let probe = Dmm_obs.Probe.create () in
  Dmm_obs.Binary_sink.attach probe sink;
  Replay.run ~probe trace (make ~probe ());
  Dmm_obs.Binary_sink.finish sink;
  close_out oc;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (bytes, Dmm_obs.Binary_sink.events sink)

let () =
  let trace = Experiments.drr_trace_seed 42 in
  let ctx = Ingest.create (Dmm_obs.Registry.create ()) in
  Printf.printf "\n%-24s %-18s %7s %11s\n" "serve stream" "stage" "events" "minor_words";
  List.iter
    (fun (name, make) ->
      let bytes, events = encode trace make in
      let row stage run =
        let w0 = Gc.minor_words () in
        (match run (Stream.source_of_string bytes) with
        | Ok _ -> ()
        | Error m -> failwith (name ^ ": " ^ m));
        Printf.printf "%-24s %-18s %7d %11.0f\n" ("DRR / " ^ name) stage events
          (Gc.minor_words () -. w0)
      in
      row "decode" (fun src -> Stream.iter_source src ~f:ignore);
      row "run_source" (Ingest.run_source ctx))
    [ ("Kingsley-Windows", Scenario.kingsley); ("Lea-Linux", Scenario.lea) ]

let () =
  Printf.printf "\n%-24s %-18s %7s %9s %6s %11s %11s\n" "generate" "stage" "events" "resident"
    "per_ev" "minor_words" "major_words";
  List.iter
    (fun (wname, generate) ->
      let m0 = direct_major_words () in
      let w0 = Gc.minor_words () in
      let trace = generate 42 in
      let minor = Gc.minor_words () -. w0 in
      let major = direct_major_words () -. m0 in
      let events = Trace.length trace in
      let resident = Obj.reachable_words (Obj.repr trace) in
      Printf.printf "%-24s %-18s %7d %9d %6.2f %11.0f %11.0f\n" wname "trace" events resident
        (float_of_int resident /. float_of_int events)
        minor major)
    [
      ("DRR scheduler", Experiments.drr_trace_seed);
      ("3D image reconstruction", Experiments.reconstruct_trace_seed);
      ("3D scalable rendering", Experiments.render_trace_seed);
    ]
