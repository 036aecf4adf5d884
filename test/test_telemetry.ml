(* The telemetry layer's accuracy contracts: log-bucketed percentiles
   bracket the exact ones within the documented relative error, the
   fragmentation sink's four factors sum to the footprint at every point
   (and agree with the managers' inline breakdown at quiescence), and the
   registry survives concurrent writers. *)

module Probe = Dmm_obs.Probe
module Obs_event = Dmm_obs.Event
module Log_hist = Dmm_obs.Log_hist
module Hist_sink = Dmm_obs.Hist_sink
module Frag_sink = Dmm_obs.Frag_sink
module Class_sink = Dmm_obs.Class_sink
module Registry = Dmm_obs.Registry
module Registry_sink = Dmm_obs.Registry_sink
module Metrics = Dmm_core.Metrics
module Allocator = Dmm_core.Allocator
module Trace = Dmm_trace.Trace
module Event = Dmm_trace.Event
module Replay = Dmm_trace.Replay
module Scenario = Dmm_workloads.Scenario

(* Same (nat, nat) -> trace embedding as test_obs. *)
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

let managers () =
  Scenario.baselines ()
  @ [ ("custom", Scenario.custom_manager (Scenario.drr_paper_design ())) ]

(* Exact percentile over a sorted array, same rank convention as
   Log_hist: smallest element whose cumulative count reaches p * total. *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else if p >= 1.0 then sorted.(n - 1)
  else begin
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let unit_tests =
  [
    Alcotest.test_case "log_hist small values are exact" `Quick (fun () ->
        let h = Log_hist.create () in
        List.iter (Log_hist.record h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
        Alcotest.(check int) "p50" 5 (Log_hist.percentile h 0.5);
        Alcotest.(check int) "p100" 10 (Log_hist.percentile h 1.0);
        Alcotest.(check int) "count" 10 (Log_hist.count h);
        Alcotest.(check int) "sum" 55 (Log_hist.sum h));
    Alcotest.test_case "log_hist sum saturates at max_int" `Quick (fun () ->
        let h = Log_hist.create () in
        List.iter (Log_hist.record h) [ 24; max_int; 16; -5 ];
        Alcotest.(check int) "sum" max_int (Log_hist.sum h);
        Alcotest.(check bool) "mean" true (Log_hist.mean h > 0.0);
        let h = Log_hist.create () in
        List.iter (Log_hist.record h) [ max_int - 10; 10 ];
        Alcotest.(check int) "sum up to max_int" max_int (Log_hist.sum h));
    Alcotest.test_case "log_hist bucket geometry round-trips" `Quick (fun () ->
        (* upper_bound(index v) >= v, and within the relative error. *)
        let sub_bits = 5 in
        let eps = Log_hist.relative_error ~sub_bits in
        for e = 0 to 20 do
          List.iter
            (fun v ->
              if v >= 0 then begin
                let ub = Log_hist.upper_bound ~sub_bits (Log_hist.index ~sub_bits v) in
                if ub < v then Alcotest.failf "upper_bound %d < %d" ub v;
                if float_of_int (ub - v) > (eps *. float_of_int v) +. 1.0 then
                  Alcotest.failf "bucket too wide at %d: ub=%d" v ub
              end)
            [ (1 lsl e) - 1; 1 lsl e; (1 lsl e) + 1 ]
        done);
    Alcotest.test_case "registry is domain-safe" `Quick (fun () ->
        let reg = Registry.create () in
        let c = Registry.counter reg "c" in
        let h = Registry.histogram reg "h" in
        let domains =
          Array.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  for i = 1 to 10_000 do
                    Registry.incr c;
                    Registry.observe h (i land 1023)
                  done))
        in
        Array.iter Domain.join domains;
        Alcotest.(check int) "counter" 40_000 (Registry.value c);
        Alcotest.(check int) "hist count" 40_000 (Registry.hist_count h);
        Alcotest.(check int) "hist max" 1023 (Registry.hist_max h));
    Alcotest.test_case "registry get-or-create and kind clash" `Quick (fun () ->
        let reg = Registry.create () in
        let c = Registry.counter reg "x" in
        Registry.add c 5;
        let c' = Registry.counter reg "x" in
        Alcotest.(check int) "same handle" 5 (Registry.value c');
        (match Registry.gauge reg "x" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "kind clash not rejected");
        Registry.reset reg;
        Alcotest.(check int) "reset" 0 (Registry.value c));
    (* What keeps the registry sink cheap on the hot path: it publishes
       only every [flush_every] events and allocates nothing per event. *)
    Alcotest.test_case "registry sink publishes every 1024 events, allocation-free"
      `Quick (fun () ->
        let reg = Registry.create () in
        let sink = Registry_sink.create reg in
        let events () = Registry.value (Registry.counter reg "dmm_events_total") in
        let feed n =
          for _ = 1 to n do
            Registry_sink.on_event sink 0 (Obs_event.Fit_scan { steps = 1 })
          done
        in
        feed 1023;
        Alcotest.(check int) "nothing published before the 1024th event" 0 (events ());
        feed 1;
        Alcotest.(check int) "published at the 1024th event" 1024 (events ());
        feed 10;
        Alcotest.(check int) "the tail stays buffered" 1024 (events ());
        Registry_sink.flush sink;
        Alcotest.(check int) "flush publishes the tail" 1034 (events ());
        (* The quick DRR stream under Lea, captured first so only
           [on_event] runs inside the measured window. *)
        Dmm_workloads.Experiments.paper_scale := false;
        let probe = Probe.create () in
        let captured = ref [] in
        Probe.attach probe (fun clock e -> captured := (clock, e) :: !captured);
        Replay.run ~probe
          (Dmm_workloads.Experiments.drr_trace_seed 42)
          (Scenario.lea ~probe ());
        let stream = Array.of_list (List.rev !captured) in
        let n = Array.length stream in
        Alcotest.(check int) "quick DRR/Lea events" 831853 n;
        let sink = Registry_sink.create (Registry.create ()) in
        let w0 = Gc.minor_words () in
        for i = 0 to n - 1 do
          let clock, e = stream.(i) in
          Registry_sink.on_event sink clock e
        done;
        let words = Gc.minor_words () -. w0 in
        if words /. float_of_int n >= 0.001 then
          Alcotest.failf "registry sink allocated %.0f minor words over %d events" words n);
    Alcotest.test_case "merge_log_hist equals per-value observe" `Quick (fun () ->
        let lh = Log_hist.create () in
        let reg = Registry.create () in
        let direct = Registry.histogram reg "direct" in
        let merged = Registry.histogram reg "merged" in
        for i = 0 to 999 do
          let v = (i * 37) mod 5000 in
          Log_hist.record lh v;
          Registry.observe direct v
        done;
        Registry.merge_log_hist merged lh;
        Alcotest.(check int) "count" (Registry.hist_count direct)
          (Registry.hist_count merged);
        Alcotest.(check int) "sum" (Registry.hist_sum direct) (Registry.hist_sum merged);
        Alcotest.(check int) "max" (Registry.hist_max direct) (Registry.hist_max merged);
        List.iter
          (fun p ->
            Alcotest.(check int)
              (Printf.sprintf "p%g" (100. *. p))
              (Registry.hist_percentile direct p)
              (Registry.hist_percentile merged p))
          [ 0.5; 0.9; 0.99; 1.0 ]);
  ]

let qcheck =
  [
    QCheck.Test.make ~name:"log_hist percentiles bracket exact ones" ~count:100
      QCheck.(list_of_size Gen.(1 -- 300) (int_bound 100_000))
      (fun values ->
        let h = Log_hist.create () in
        List.iter (Log_hist.record h) values;
        let sorted = Array.of_list values in
        Array.sort compare sorted;
        let eps = Log_hist.relative_error ~sub_bits:(Log_hist.sub_bits h) in
        List.for_all
          (fun p ->
            let approx = Log_hist.percentile h p in
            let exact = exact_percentile sorted p in
            (* From above, within one bucket's relative width. *)
            approx >= exact
            && float_of_int (approx - exact) <= (eps *. float_of_int exact) +. 1.0)
          [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]);
    QCheck.Test.make ~name:"frag sink factors sum to footprint at every point"
      ~count:30
      QCheck.(list_of_size Gen.(5 -- 80) (pair small_nat small_nat))
      (fun ops ->
        let trace = trace_of ops in
        List.for_all
          (fun (_, (make : Scenario.maker)) ->
            let probe = Probe.create () in
            let frag = Frag_sink.create ~max_points:64 () in
            Frag_sink.attach probe frag;
            let a = make ~probe () in
            Replay.run ~probe trace a;
            let ok = ref true in
            Frag_sink.iter
              (fun p ->
                if
                  p.Frag_sink.live_payload + p.Frag_sink.tag_overhead
                  + p.Frag_sink.internal_padding + p.Frag_sink.free_bytes
                  <> p.Frag_sink.footprint
                then ok := false)
              frag;
            (* At quiescence the sink's decomposition is the manager's own. *)
            let b = Allocator.breakdown a in
            let c = Frag_sink.current frag in
            !ok
            && c.Frag_sink.live_payload = b.Metrics.live_payload
            && c.Frag_sink.tag_overhead = b.Metrics.tag_overhead
            && c.Frag_sink.internal_padding = b.Metrics.internal_padding
            && c.Frag_sink.free_bytes = b.Metrics.free_bytes
            && c.Frag_sink.footprint = b.Metrics.total_held)
          (managers ()));
    QCheck.Test.make ~name:"registry sink totals equal bare metrics sink" ~count:30
      QCheck.(
        pair
          (list_of_size Gen.(5 -- 80) (pair small_nat small_nat))
          (1 -- 64) (* flush interval, to exercise mid-stream flushes *))
      (fun (ops, flush_every) ->
        let trace = trace_of ops in
        let probe = Probe.create () in
        let met = Metrics.create () in
        Probe.attach probe (Metrics.on_event met);
        let reg = Registry.create () in
        let sink = Registry_sink.create ~flush_every reg in
        Registry_sink.attach probe sink;
        let make : Scenario.maker = Scenario.lea in
        Replay.run ~probe trace (make ~probe ());
        Registry_sink.flush sink;
        let counter name = Registry.value (Registry.counter reg name) in
        let s = Metrics.snapshot met in
        counter "dmm_allocs_total" = s.Metrics.allocs
        && counter "dmm_frees_total" = s.Metrics.frees
        && counter "dmm_splits_total" = s.Metrics.splits
        && counter "dmm_coalesces_total" = s.Metrics.coalesces
        && counter "dmm_events_total" = Probe.clock probe);
    QCheck.Test.make ~name:"class sink conserves blocks and bytes" ~count:30
      QCheck.(list_of_size Gen.(5 -- 80) (pair small_nat small_nat))
      (fun ops ->
        let trace = trace_of ops in
        let probe = Probe.create () in
        let cls = Class_sink.create () in
        Class_sink.attach probe cls;
        let frag = Frag_sink.create () in
        Frag_sink.attach probe frag;
        let make : Scenario.maker = Scenario.lea in
        Replay.run ~probe trace (make ~probe ());
        let rows = Class_sink.rows cls in
        List.for_all
          (fun (r : Class_sink.row) ->
            r.Class_sink.allocs - r.Class_sink.frees = r.Class_sink.live_blocks
            && r.Class_sink.live_bytes <= r.Class_sink.peak_live_bytes
            && r.Class_sink.live_blocks <= r.Class_sink.peak_live_blocks)
          rows
        &&
        (* Per-class gross totals add up to the global live gross, which
           the frag sink tracks as footprint - free_bytes. *)
        let live_gross =
          List.fold_left (fun acc r -> acc + r.Class_sink.live_bytes) 0 rows
        in
        let c = Frag_sink.current frag in
        live_gross = c.Frag_sink.footprint - c.Frag_sink.free_bytes);
  ]

let tests =
  ("telemetry", unit_tests @ List.map QCheck_alcotest.to_alcotest qcheck)
