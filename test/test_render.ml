module Render = Dmm_workloads.Render
module Recorder = Dmm_trace.Recorder
module Trace = Dmm_trace.Trace
module Event = Dmm_trace.Event
module Profile = Dmm_core.Profile
module Allocator = Dmm_core.Allocator

let small =
  { Render.default_config with objects = 4; max_level = 4; orbit_cycles = 6; composite_frames = 8 }

let run_recorded config =
  let a, get = Recorder.recording_allocator () in
  let stats = Render.run ~config a in
  (stats, get (), a)

let check_runs_and_frees_everything () =
  let stats, trace, a = run_recorded small in
  Alcotest.(check int) "no leaks" 0 (Trace.live_at_end trace);
  Alcotest.(check int) "live payload zero" 0 (Allocator.current_footprint a);
  Alcotest.(check bool) "records allocated" true (stats.Render.records_total > 0);
  match Trace.validate trace with Ok () -> () | Error m -> Alcotest.fail m

let check_determinism () =
  let s1, t1, _ = run_recorded small in
  let s2, t2, _ = run_recorded small in
  Alcotest.(check int) "checksum" s1.Render.checksum s2.Render.checksum;
  Alcotest.(check bool) "traces identical" true (Trace.to_list t1 = Trace.to_list t2)

let check_phase_markers () =
  let _, trace, _ = run_recorded small in
  let phases = ref [] in
  Trace.iter
    (function Event.Phase p -> phases := p :: !phases | Event.Alloc _ | Event.Free _ -> ())
    trace;
  Alcotest.(check (list int)) "three phases in order" [ 0; 1; 2 ] (List.rev !phases)

let check_phase_behaviours () =
  let _, trace, _ = run_recorded small in
  let profile = Dmm_trace.Profile_builder.of_trace trace in
  match Profile.phases profile with
  | [ p0; p1; p2 ] ->
    Alcotest.(check int) "refine never frees" 0 p0.Profile.frees;
    Alcotest.(check int) "refine uses one record size" 1 (Profile.distinct_sizes p0);
    Alcotest.(check bool) "orbit is perfectly stack-like" true
      (Profile.stack_likeness p1 = 1.0);
    Alcotest.(check bool) "compositing is not stack-like" true
      (Profile.stack_likeness p2 < 0.3);
    Alcotest.(check bool) "compositing frees dominate" true
      (p2.Profile.frees > p2.Profile.allocs)
  | other -> Alcotest.fail (Printf.sprintf "expected 3 phases, got %d" (List.length other))

let check_records_peak () =
  let stats, _, _ = run_recorded small in
  (* Full detail: objects * base * (2^(max+1) - 1) vertex-split records. *)
  let expected =
    small.Render.objects * small.Render.base_vertices * ((2 lsl small.Render.max_level) - 1)
  in
  Alcotest.(check int) "records at full detail" expected stats.Render.records_peak

let check_bad_config () =
  Alcotest.check_raises "no objects" (Invalid_argument "Render.run: bad config")
    (fun () ->
      let a, _ = Recorder.recording_allocator () in
      ignore (Render.run ~config:{ small with objects = 0 } a))

(* The recording path ([Scenario.render_trace], which skips the
   simulated work) against a live run with it on: the same events, and
   the live run's checksum as the generator has always produced it. The
   checksum follows the recorder's ids, which no seed moves. *)
let check_recording_matches_live () =
  List.iter
    (fun (label, config, checksum) ->
      let stats, live, _ = run_recorded config in
      Alcotest.(check int) (label ^ ": live checksum") checksum stats.Render.checksum;
      Same_trace.check label live (Dmm_workloads.Scenario.render_trace ~config ()))
    [
      ("quick", Render.default_config, 813260120);
      ("paper seed 1", { Render.paper_config with seed = 1 }, 237745456);
      ("paper seed 2", { Render.paper_config with seed = 2 }, 237745456);
    ]

let gen_config =
  QCheck.Gen.(
    map
      (fun ((objects, base_vertices, max_level), (orbit_cycles, composite_frames, output_buffers), seed) ->
        {
          Render.objects;
          base_vertices;
          max_level;
          record_bytes = 24;
          orbit_cycles;
          composite_frames;
          output_buffers;
          seed;
        })
      (triple
         (triple (int_range 1 6) (int_range 1 12) (int_range 0 4))
         (triple (int_range 0 8) (int_range 1 12) (int_range 0 4))
         int))

let show_config (c : Render.config) =
  Printf.sprintf
    "objects=%d base_vertices=%d max_level=%d orbit_cycles=%d composite_frames=%d \
     output_buffers=%d seed=%d"
    c.objects c.base_vertices c.max_level c.orbit_cycles c.composite_frames c.output_buffers
    c.seed

(* Skipping the work changes the checksum alone: the manager sees the
   same calls and every other statistic is the same. *)
let prop_skip_matches_live =
  QCheck.Test.make ~name:"skipped work records the live run's trace" ~count:100
    (QCheck.make ~print:show_config gen_config)
    (fun config ->
      let live_stats, live, _ = run_recorded config in
      let a, get = Recorder.recording_allocator () in
      let skip_stats = Render.run ~config ~simulate:false a in
      skip_stats.Render.checksum = 0
      && { skip_stats with Render.checksum = live_stats.Render.checksum } = live_stats
      && Same_trace.first_difference live (get ()) = None)

let tests =
  ( "render",
    [
      Alcotest.test_case "runs and frees everything" `Quick check_runs_and_frees_everything;
      Alcotest.test_case "determinism" `Quick check_determinism;
      Alcotest.test_case "phase markers" `Quick check_phase_markers;
      Alcotest.test_case "phase behaviours" `Quick check_phase_behaviours;
      Alcotest.test_case "records peak" `Quick check_records_peak;
      Alcotest.test_case "bad config" `Quick check_bad_config;
      Alcotest.test_case "recording path matches the live run" `Quick
        check_recording_matches_live;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |]) prop_skip_matches_live;
    ] )
