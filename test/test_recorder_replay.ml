module Trace = Dmm_trace.Trace
module Event = Dmm_trace.Event
module Recorder = Dmm_trace.Recorder
module Replay = Dmm_trace.Replay
module Footprint_series = Dmm_trace.Footprint_series
module Csv = Dmm_trace.Csv
module Allocator = Dmm_core.Allocator

let check_recording_allocator () =
  let a, get = Recorder.recording_allocator () in
  let x = Allocator.alloc a 100 in
  let y = Allocator.alloc a 50 in
  Allocator.phase a 2;
  Allocator.free a x;
  let t = get () in
  Alcotest.(check int) "events" 4 (Trace.length t);
  (match Trace.validate t with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "live payload" 50 (Allocator.current_footprint a);
  Alcotest.(check bool) "distinct ids" true (x <> y);
  try
    Allocator.free a x;
    Alcotest.fail "double free accepted"
  with Allocator.Invalid_free _ -> ()

let check_replay_reproduces () =
  (* Record a random workload, then replay it into another recorder: the
     second trace must be identical event for event. *)
  let rng = Dmm_util.Prng.create 33 in
  let a, get = Recorder.recording_allocator () in
  let live = ref [] in
  for _ = 1 to 400 do
    if Dmm_util.Prng.bool rng || !live = [] then
      live := Allocator.alloc a (1 + Dmm_util.Prng.int rng 300) :: !live
    else begin
      let n = Dmm_util.Prng.int rng (List.length !live) in
      Allocator.free a (List.nth !live n);
      live := List.filteri (fun i _ -> i <> n) !live
    end
  done;
  let t1 = get () in
  let b, get2 = Recorder.recording_allocator () in
  Replay.run t1 b;
  let t2 = get2 () in
  Alcotest.(check bool) "identical traces" true (Trace.to_list t1 = Trace.to_list t2)

(* An id near [max_int] cannot index the id table: the replay must refuse
   the trace rather than loop trying to grow the table past it. *)
let check_replay_huge_id () =
  let t = Trace.of_list [ Event.Alloc { id = max_int; size = 8 } ] in
  match Replay.run t (Dmm_workloads.Scenario.kingsley ()) with
  | () -> Alcotest.fail "id max_int replayed"
  | exception Invalid_argument _ -> ()

let check_replay_footprint_deterministic () =
  let t = Dmm_workloads.Scenario.drr_trace () in
  let make () = Dmm_workloads.Scenario.lea () in
  let fp1 = Replay.max_footprint_of t (make ()) in
  let fp2 = Replay.max_footprint_of t (make ()) in
  Alcotest.(check int) "deterministic replay" fp1 fp2

let check_footprint_series () =
  let t = Dmm_workloads.Scenario.drr_trace () in
  let points = Footprint_series.sample ~every:100 t (Dmm_workloads.Scenario.lea ()) in
  Alcotest.(check bool) "points produced" true (List.length points > 2);
  Alcotest.(check bool) "peak positive" true (Footprint_series.peak points > 0);
  List.iter
    (fun (p : Footprint_series.point) ->
      Alcotest.(check bool) "current <= maximum" true (p.current <= p.maximum))
    points;
  let last = List.nth points (List.length points - 1) in
  Alcotest.(check int) "final event sampled" (Trace.length t - 1) last.event;
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Footprint_series.sample: non-positive interval") (fun () ->
      ignore (Footprint_series.sample ~every:0 t (Dmm_workloads.Scenario.lea ())))

let check_csv () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Temp_file.with_fresh_path (fun path ->
      Csv.write path ~header:[ "a"; "b" ] [ [ "1"; "x,y" ]; [ "2"; "z" ] ];
      let ic = open_in path in
      let lines = List.init 3 (fun _ -> input_line ic) in
      close_in ic;
      Alcotest.(check (list string)) "content" [ "a,b"; "1,\"x,y\""; "2,z" ] lines)

let check_profile_builder () =
  let t =
    Trace.of_list
      [
        Event.Alloc { id = 1; size = 10 };
        Event.Phase 1;
        Event.Alloc { id = 2; size = 20 };
        Event.Free { id = 2 };
        Event.Free { id = 1 };
      ]
  in
  let p = Dmm_trace.Profile_builder.of_trace t in
  let total = Dmm_core.Profile.total p in
  Alcotest.(check int) "allocs" 2 total.Dmm_core.Profile.allocs;
  Alcotest.(check int) "peak" 30 total.Dmm_core.Profile.peak_live_bytes;
  Alcotest.(check (list int)) "phases" [ 0; 1 ] (Dmm_core.Profile.phase_ids p)

let tests =
  ( "recorder_replay",
    [
      Alcotest.test_case "recording allocator" `Quick check_recording_allocator;
      Alcotest.test_case "replay reproduces the trace" `Quick check_replay_reproduces;
      Alcotest.test_case "replay refuses id max_int" `Quick check_replay_huge_id;
      Alcotest.test_case "replay footprint deterministic" `Quick check_replay_footprint_deterministic;
      Alcotest.test_case "footprint series" `Quick check_footprint_series;
      Alcotest.test_case "csv" `Quick check_csv;
      Alcotest.test_case "profile builder" `Quick check_profile_builder;
    ] )
