(* The observability layer's determinism contract: with a probe attached,
   the event stream alone reconstructs exactly what the managers' inline
   accounting reports. *)

module Probe = Dmm_obs.Probe
module Obs_event = Dmm_obs.Event
module Series_sink = Dmm_obs.Series_sink
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator
module Trace = Dmm_trace.Trace
module Event = Dmm_trace.Event
module Replay = Dmm_trace.Replay
module Scenario = Dmm_workloads.Scenario

let static_pool : Scenario.maker =
 fun ?probe () ->
  Dmm_allocators.Static_pool.allocator
    (Dmm_allocators.Static_pool.create
       (Dmm_vmem.Address_space.create ?probe ())
       [ (16, 512); (64, 512); (256, 256); (1024, 64); (4096, 16) ])

let managers () =
  Scenario.baselines ()
  @ [
      ("static", static_pool);
      ("custom", Scenario.custom_manager (Scenario.drr_paper_design ()));
      ("custom-global", Scenario.custom_global (Scenario.render_paper_design ()));
    ]

(* Any (nat, nat) list maps to a valid trace: allocs draw fresh ids, frees
   pick a live id (falling back to an alloc when none is live), and a few
   phase markers exercise the per-phase composition. *)
let trace_of ops =
  let next = ref 0 in
  let live = ref [] in
  let events = ref [] in
  let push e = events := e :: !events in
  let alloc size =
    incr next;
    live := !next :: !live;
    push (Event.Alloc { id = !next; size = 1 + (size mod 4096) })
  in
  List.iter
    (fun (k, size) ->
      match k mod 8 with
      | 0 | 1 | 2 | 3 -> alloc size
      | 4 | 5 | 6 -> (
        match !live with
        | [] -> alloc size
        | l ->
          let n = List.length l in
          let id = List.nth l (size mod n) in
          live := List.filter (fun x -> x <> id) l;
          push (Event.Free { id }))
      | _ -> push (Event.Phase (size mod 3)))
    ops;
  Trace.of_list (List.rev !events)

let qcheck =
  [
    QCheck.Test.make ~name:"metrics sink equals inline accounting" ~count:50
      QCheck.(list_of_size Gen.(5 -- 80) (pair small_nat small_nat))
      (fun ops ->
        let trace = trace_of ops in
        List.for_all
          (fun (_, (make : Scenario.maker)) ->
            let probe = Probe.create () in
            let ms = Metrics.create () in
            Probe.attach probe (Metrics.on_event ms);
            let a = make ~probe () in
            Replay.run ~probe trace a;
            Allocator.stats a = Metrics.snapshot ms)
          (managers ()));
  ]

let check_series_tracks_footprint () =
  let trace = Scenario.drr_trace () in
  List.iter
    (fun (name, (make : Scenario.maker)) ->
      let probe = Probe.create () in
      let ss = Series_sink.create () in
      Series_sink.attach probe ss;
      let a = make ~probe () in
      let mismatches = ref 0 and peak_mismatches = ref 0 in
      Replay.run ~probe
        ~on_event:(fun _ a ->
          if Series_sink.current ss <> Allocator.current_footprint a then
            incr mismatches;
          (* The maximum footprint is the stream's running peak at every
             event, so it never decreases, trims included. *)
          if Series_sink.peak ss <> Allocator.max_footprint a then incr peak_mismatches)
        trace a;
      Alcotest.(check int) (name ^ " series matches polled footprint") 0 !mismatches;
      Alcotest.(check int)
        (name ^ " running peak matches polled maximum footprint")
        0 !peak_mismatches;
      Alcotest.(check int)
        (name ^ " series peak is the manager's high-water mark")
        (Allocator.max_footprint a) (Series_sink.peak ss))
    (managers ())

let check_clock_is_gap_free () =
  (* Every event a sink sees is stamped with consecutive clock values. *)
  let probe = Probe.create () in
  let expected = ref 0 in
  let gaps = ref 0 in
  Probe.attach probe (fun clock _ ->
      if clock <> !expected then incr gaps;
      incr expected);
  let a = Scenario.lea ~probe () in
  Replay.run ~probe (trace_of [ (0, 100); (1, 20); (4, 0); (7, 1); (5, 0) ]) a;
  Alcotest.(check int) "no clock gaps" 0 !gaps;
  Alcotest.(check int) "clock counts emitted events" !expected (Probe.clock probe)

let check_null_probe_inert () =
  Alcotest.(check bool) "null is disabled" false (Probe.enabled Probe.null);
  Probe.emit Probe.null (Obs_event.Phase 0);
  Alcotest.(check int) "null clock never advances" 0 (Probe.clock Probe.null);
  Alcotest.check_raises "attach to null raises"
    (Invalid_argument "Probe.attach: cannot attach a sink to the null probe")
    (fun () -> Probe.attach Probe.null (fun _ _ -> ()))

let tests =
  ( "obs",
    [
      Alcotest.test_case "series sink tracks footprint" `Quick
        check_series_tracks_footprint;
      Alcotest.test_case "logical clock is gap-free" `Quick check_clock_is_gap_free;
      Alcotest.test_case "null probe is inert" `Quick check_null_probe_inert;
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
