module SP = Dmm_allocators.Static_pool
module Allocator = Dmm_core.Allocator
module Address_space = Dmm_vmem.Address_space
module Experiments = Dmm_workloads.Experiments
module Trace = Dmm_trace.Trace
module Event = Dmm_trace.Event
module Probe = Dmm_obs.Probe
module Stream = Dmm_check.Stream
module Sanitizer = Dmm_check.Sanitizer

let fresh ?margin capacities = SP.create ?margin (Address_space.create ()) capacities

let check_reservation_upfront () =
  let sp = fresh [ (64, 10); (256, 4) ] in
  Alcotest.(check int) "reserved bytes" ((64 * 10) + (256 * 4)) (SP.reserved_bytes sp);
  Alcotest.(check int) "footprint is flat" (SP.reserved_bytes sp) (SP.current_footprint sp);
  (* Allocations do not change the footprint. *)
  let a = SP.alloc sp 60 in
  Alcotest.(check int) "still flat" (SP.reserved_bytes sp) (SP.current_footprint sp);
  SP.free sp a;
  Alcotest.(check int) "and after free" (SP.reserved_bytes sp) (SP.current_footprint sp)

let check_serves_from_classes () =
  let sp = fresh [ (64, 2); (256, 1) ] in
  let a = SP.alloc sp 50 in
  let b = SP.alloc sp 64 in
  let c = SP.alloc sp 100 in
  Alcotest.(check int) "no overflow for provisioned load" 0 (SP.overflow_allocs sp);
  Alcotest.(check bool) "distinct addresses" true (a <> b && b <> c && a <> c);
  SP.free sp a;
  let a' = SP.alloc sp 33 in
  Alcotest.(check int) "slot recycled" a a'

let check_overflow_counted () =
  let sp = fresh [ (64, 1) ] in
  let _ = SP.alloc sp 10 in
  let _ = SP.alloc sp 10 in
  Alcotest.(check int) "capacity exceeded" 1 (SP.overflow_allocs sp);
  Alcotest.(check bool) "emergency memory charged" true (SP.overflow_bytes sp > 0);
  (* Requests above the largest slot always overflow. *)
  let _ = SP.alloc sp 1000 in
  Alcotest.(check int) "oversize overflows" 2 (SP.overflow_allocs sp)

let check_margin_scales () =
  let sp = fresh ~margin:2.0 [ (64, 3) ] in
  Alcotest.(check int) "doubled capacity" (64 * 6) (SP.reserved_bytes sp);
  let sp1 = fresh ~margin:1.0 [ (64, 3) ] in
  Alcotest.(check int) "base capacity" (64 * 3) (SP.reserved_bytes sp1)

let check_bad_config () =
  Alcotest.check_raises "non-pow2 slot"
    (Invalid_argument "Static_pool.create: slot sizes must be powers of two") (fun () ->
      ignore (fresh [ (48, 1) ]));
  Alcotest.check_raises "duplicate slots"
    (Invalid_argument "Static_pool.create: duplicate slot sizes") (fun () ->
      ignore (fresh [ (64, 1); (64, 2) ]));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Static_pool.create: negative capacity") (fun () ->
      ignore (fresh [ (64, -1) ]))

let check_invalid_free () =
  let sp = fresh [ (64, 1) ] in
  let a = SP.alloc sp 10 in
  SP.free sp a;
  try
    SP.free sp a;
    Alcotest.fail "double free accepted"
  with Allocator.Invalid_free _ -> ()

let check_class_capacities () =
  let t =
    Trace.of_list
      [
        Event.Alloc { id = 1; size = 60 };
        Event.Alloc { id = 2; size = 50 };
        Event.Free { id = 1 };
        Event.Alloc { id = 3; size = 200 };
        Event.Alloc { id = 4; size = 55 };
      ]
  in
  (* 60/50/55 -> class 64 with peak 2 live; 200 -> class 256 peak 1. *)
  Alcotest.(check (list (pair int int))) "per-class peaks" [ (64, 2); (256, 1) ]
    (Experiments.class_capacities t)

let check_capacities_suffice_on_design_input () =
  Experiments.paper_scale := false;
  let trace = Dmm_workloads.Scenario.drr_trace () in
  let caps = Experiments.class_capacities trace in
  let sp = fresh caps in
  Dmm_trace.Replay.run trace (SP.allocator sp);
  Alcotest.(check int) "worst-case sizing never overflows its own input" 0
    (SP.overflow_allocs sp)

let check_static_report_shape () =
  Experiments.paper_scale := false;
  let r = Experiments.static_comparison () in
  Alcotest.(check bool) "static costs more than DM" true
    (r.Experiments.reserved_bytes > r.Experiments.custom_footprint);
  Alcotest.(check bool) "overhead percentage positive" true
    (r.Experiments.static_overhead_pct > 0.0);
  Alcotest.(check int) "three stress seeds" 3
    (List.length r.Experiments.overflows_on_other_inputs)

let check_sanitizer_accepts () =
  let trace = Dmm_workloads.Scenario.drr_trace () in
  let caps = Experiments.class_capacities trace in
  (* Attached before the pool reserves its slab, so the sanitizer sees
     the stream from clock 0. *)
  let probe = Probe.create () in
  let st = Sanitizer.start () in
  Probe.attach probe (fun clock event -> Sanitizer.feed st { Stream.clock; event });
  let sp = SP.create (Address_space.create ~probe ()) caps in
  Dmm_trace.Replay.run ~probe trace (SP.allocator sp);
  let r = Sanitizer.finalize st in
  Alcotest.(check (list string)) "no diagnostics" []
    (List.map Dmm_check.Diag.to_string r.Sanitizer.diags);
  Alcotest.(check bool) "events checked" true (r.Sanitizer.events > 0)

let tests =
  ( "static_pool",
    [
      Alcotest.test_case "reservation up front" `Quick check_reservation_upfront;
      Alcotest.test_case "serves from classes" `Quick check_serves_from_classes;
      Alcotest.test_case "overflow counted" `Quick check_overflow_counted;
      Alcotest.test_case "margin scales capacity" `Quick check_margin_scales;
      Alcotest.test_case "bad config" `Quick check_bad_config;
      Alcotest.test_case "invalid free" `Quick check_invalid_free;
      Alcotest.test_case "class capacities from a trace" `Quick check_class_capacities;
      Alcotest.test_case "worst case covers its own input" `Quick
        check_capacities_suffice_on_design_input;
      Alcotest.test_case "static report shape" `Slow check_static_report_shape;
      Alcotest.test_case "sanitizer accepts it" `Slow check_sanitizer_accepts;
    ] )
