module PD = Dmm_trace.Phase_detect
module Trace = Dmm_trace.Trace
module Event = Dmm_trace.Event
module Scenario = Dmm_workloads.Scenario

let check_strip () =
  let t =
    Trace.of_list
      [ Event.Phase 0; Event.Alloc { id = 1; size = 8 }; Event.Phase 1; Event.Free { id = 1 } ]
  in
  let s = PD.strip t in
  Alcotest.(check int) "phases removed" 2 (Trace.length s);
  Trace.iter
    (function
      | Event.Phase _ -> Alcotest.fail "phase event survived strip"
      | Event.Alloc _ | Event.Free _ -> ())
    s

let check_homogeneous_trace_one_phase () =
  (* Steady churn of one size: no boundaries. *)
  let b = Trace.Builder.create () in
  for i = 1 to 20000 do
    Trace.Builder.add b (Event.Alloc { id = i; size = 64 });
    Trace.Builder.add b (Event.Free { id = i })
  done;
  Alcotest.(check (list int)) "no cuts" [] (PD.boundaries (Trace.Builder.build b))

let check_synthetic_two_phases () =
  (* 10k events of small-alloc churn, then 10k of pure large allocation. *)
  let b = Trace.Builder.create () in
  let id = ref 0 in
  for _ = 1 to 5000 do
    incr id;
    Trace.Builder.add b (Event.Alloc { id = !id; size = 32 });
    Trace.Builder.add b (Event.Free { id = !id })
  done;
  let switch = 2 * !id in
  for _ = 1 to 10000 do
    incr id;
    Trace.Builder.add b (Event.Alloc { id = !id; size = 4096 })
  done;
  match PD.boundaries (Trace.Builder.build b) with
  | [ cut ] ->
    Alcotest.(check bool)
      (Printf.sprintf "cut %d within a window of the switch %d" cut switch)
      true
      (abs (cut - switch) <= PD.default_config.PD.window)
  | cuts -> Alcotest.fail (Printf.sprintf "expected 1 cut, got %d" (List.length cuts))

let check_render_phases_recovered () =
  (* The renderer announces its phases; detection must recover them from
     the stripped trace to within one window. *)
  let t = Scenario.render_trace () in
  let true_cuts = ref [] in
  let i = ref 0 in
  Trace.iter
    (function
      | Event.Phase p -> if p > 0 then true_cuts := !i :: !true_cuts
      | Event.Alloc _ | Event.Free _ -> incr i)
    t;
  let true_cuts = List.rev !true_cuts in
  let detected = PD.boundaries (PD.strip t) in
  Alcotest.(check int) "as many cuts as true phase changes" (List.length true_cuts)
    (List.length detected);
  List.iter2
    (fun truth found ->
      Alcotest.(check bool)
        (Printf.sprintf "cut %d near true boundary %d" found truth)
        true
        (abs (found - truth) <= PD.default_config.PD.window))
    true_cuts detected

let check_drr_single_phase () =
  let t = Scenario.drr_trace () in
  Alcotest.(check (list int)) "DRR is one behaviour" [] (PD.boundaries (PD.strip t))

let check_annotate () =
  let t = Scenario.render_trace () in
  let annotated = PD.annotate t in
  (match Trace.validate annotated with Ok () -> () | Error m -> Alcotest.fail m);
  let phases = ref [] in
  Trace.iter
    (function Event.Phase p -> phases := p :: !phases | Event.Alloc _ | Event.Free _ -> ())
    annotated;
  Alcotest.(check (list int)) "phases renumbered in order" [ 0; 1; 2 ] (List.rev !phases);
  Alcotest.(check int) "same number of alloc/free events"
    (Trace.alloc_count t + Trace.free_count t)
    (Trace.alloc_count annotated + Trace.free_count annotated)

let check_design_with_detection () =
  (* The methodology driven by detected phases must still produce a manager
     at least as good as the best atomic one. *)
  let t = PD.strip (Scenario.render_trace ()) in
  let spec = Scenario.global_design_for ~detect_phases:true t in
  Alcotest.(check bool) "phase overrides derived" true (List.length spec.Scenario.overrides >= 2)

let check_bad_config () =
  let t = Trace.of_list [] in
  Alcotest.check_raises "bad window" (Invalid_argument "Phase_detect.boundaries: bad config")
    (fun () ->
      ignore (PD.boundaries ~config:{ PD.default_config with PD.window = 0 } t))

let tests =
  ( "phase_detect",
    [
      Alcotest.test_case "strip" `Quick check_strip;
      Alcotest.test_case "homogeneous trace has one phase" `Quick
        check_homogeneous_trace_one_phase;
      Alcotest.test_case "synthetic two phases" `Quick check_synthetic_two_phases;
      Alcotest.test_case "render phases recovered" `Quick check_render_phases_recovered;
      Alcotest.test_case "DRR stays single-phase" `Quick check_drr_single_phase;
      Alcotest.test_case "annotate" `Quick check_annotate;
      Alcotest.test_case "methodology with detected phases" `Slow check_design_with_detection;
      Alcotest.test_case "bad config" `Quick check_bad_config;
    ] )
