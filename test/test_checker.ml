module Checker = Dmm_trace.Checker
module Allocator = Dmm_core.Allocator
module Scenario = Dmm_workloads.Scenario
module Replay = Dmm_trace.Replay

let check_accepts_correct_managers () =
  (* Every shipped manager must pass the checker over a full case study. *)
  let trace = Scenario.drr_trace () in
  List.iter
    (fun (name, (make : Scenario.maker)) ->
      try Replay.run trace (Checker.wrap (make ()))
      with Checker.Violation msg -> Alcotest.fail (name ^ ": " ^ msg))
    (Scenario.baselines ()
    @ [
        ("custom", Scenario.custom_manager (Scenario.drr_paper_design ()));
        ("custom-global", Scenario.custom_global (Scenario.render_paper_design ()));
      ])

(* A deliberately broken manager: returns the same address twice. *)
let broken_always_same () =
  let stats = Dmm_core.Metrics.create () in
  {
    Allocator.name = "broken";
    alloc =
      (fun size ->
        Dmm_core.Metrics.on_alloc stats ~payload:size ~gross:size ~tag:0 ~addr:0;
        0);
    free = (fun _ -> ());
    phase = Allocator.ignore_phase;
    current_footprint = (fun () -> 1 lsl 30);
    max_footprint = (fun () -> 1 lsl 30);
    stats = (fun () -> Dmm_core.Metrics.snapshot stats);
    breakdown =
      (fun () ->
        {
          Dmm_core.Metrics.live_payload = 0;
          tag_overhead = 0;
          internal_padding = 0;
          free_bytes = 0;
          total_held = 0;
        });
  }

let check_catches_overlap () =
  let a = Checker.wrap (broken_always_same ()) in
  let _ = Allocator.alloc a 10 in
  try
    let _ = Allocator.alloc a 10 in
    Alcotest.fail "overlap not caught"
  with Checker.Violation _ -> ()

let check_catches_double_free () =
  let a = Checker.wrap (Scenario.lea ()) in
  let addr = Allocator.alloc a 64 in
  Allocator.free a addr;
  try
    Allocator.free a addr;
    Alcotest.fail "double free not caught"
  with Checker.Violation _ -> ()

let check_catches_bogus_free () =
  let a = Checker.wrap (Scenario.lea ()) in
  let _ = Allocator.alloc a 64 in
  try
    Allocator.free a 424242;
    Alcotest.fail "bogus free not caught"
  with Checker.Violation _ -> ()

(* A manager whose footprint under-reports: the checker must object. *)
let check_catches_lying_footprint () =
  let inner = Scenario.kingsley () in
  let lying = { inner with Allocator.current_footprint = (fun () -> 0) } in
  let a = Checker.wrap lying in
  try
    let _ = Allocator.alloc a 100 in
    Alcotest.fail "under-reported footprint not caught"
  with Checker.Violation _ -> ()

let check_payload_cap () =
  let a = Checker.wrap ~payload_cap:100 (Scenario.lea ()) in
  let _ = Allocator.alloc a 100 in
  try
    let _ = Allocator.alloc a 101 in
    Alcotest.fail "cap not enforced"
  with Checker.Violation _ -> ()

let check_rejects_bad_size () =
  let a = Checker.wrap (Scenario.lea ()) in
  try
    let _ = Allocator.alloc a 0 in
    Alcotest.fail "zero-size alloc not caught"
  with Checker.Violation _ -> ()

let tests =
  ( "checker",
    [
      Alcotest.test_case "accepts all shipped managers" `Slow check_accepts_correct_managers;
      Alcotest.test_case "catches overlapping blocks" `Quick check_catches_overlap;
      Alcotest.test_case "catches double frees" `Quick check_catches_double_free;
      Alcotest.test_case "catches bogus frees" `Quick check_catches_bogus_free;
      Alcotest.test_case "catches lying footprints" `Quick check_catches_lying_footprint;
      Alcotest.test_case "payload cap" `Quick check_payload_cap;
      Alcotest.test_case "rejects non-positive sizes" `Quick check_rejects_bad_size;
    ] )
