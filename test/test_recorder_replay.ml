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

(* Invalid traces raise what they raised while the id table grew on
   demand: a negative id fails its store after the manager allocated, and
   a free of an id that is not live names it, whether the id lies below
   the trace's id bound, past it or below 0. Only an id too large to size
   the table changed: it is refused before the first event (it used to
   fail at its own event, with "index out of bounds" for [max_int] and
   "Array.make" for 2^61). *)
let check_replay_invalid_traces () =
  let al id = Event.Alloc { id; size = 8 } and fr id = Event.Free { id } in
  let outcome events =
    let a = Dmm_workloads.Scenario.kingsley () in
    let fired = ref 0 in
    match Replay.run ~on_event:(fun _ _ -> incr fired) (Trace.of_list events) a with
    | () -> Ok ((Allocator.stats a).allocs, !fired)
    | exception Invalid_argument m -> Error (m, (Allocator.stats a).allocs, !fired)
  in
  let show = function
    | Ok (allocs, fired) -> Printf.sprintf "ok: %d allocs, %d events" allocs fired
    | Error (m, allocs, fired) -> Printf.sprintf "%S after %d allocs, %d events" m allocs fired
  in
  let expect name events want =
    Alcotest.(check string) name (show want) (show (outcome events))
  in
  let non_live id = Printf.sprintf "Replay.run: free of non-live id %d" id in
  expect "negative id" [ al 1; al (-1) ] (Error ("index out of bounds", 2, 1));
  List.iter
    (fun id ->
      match outcome [ al 1; al id ] with
      | Error (_, 0, 0) -> ()
      | r -> Alcotest.failf "id %d: %s, expected a refusal before the first event" id (show r))
    [ max_int; 1 lsl 61 ];
  expect "sparse id" [ al 1000; al 1; fr 1000 ] (Ok (2, 3));
  expect "free below the bound" [ al 5; fr 3 ] (Error (non_live 3, 1, 1));
  expect "free past the bound" [ al 5; fr 7 ] (Error (non_live 7, 1, 1));
  expect "free of a negative id" [ al 5; fr (-2) ] (Error (non_live (-2), 1, 1));
  expect "free of max_int" [ al 5; fr max_int ] (Error (non_live max_int, 1, 1));
  expect "double free" [ al 1; fr 1; fr 1 ] (Error (non_live 1, 1, 2))

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
      Alcotest.test_case "replay of invalid traces" `Quick check_replay_invalid_traces;
      Alcotest.test_case "replay footprint deterministic" `Quick check_replay_footprint_deterministic;
      Alcotest.test_case "footprint series" `Quick check_footprint_series;
      Alcotest.test_case "csv" `Quick check_csv;
      Alcotest.test_case "profile builder" `Quick check_profile_builder;
    ] )
