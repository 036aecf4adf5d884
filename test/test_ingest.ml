(* The ingest daemon's engine: failure accounting must be exact under
   concurrent shards (active gauge back to zero, errors counted once,
   registry still usable), the observed driver must agree with the plain
   one, the SLO gate must flip and recover, the wire trace context
   must round-trip, and streams of hostile values finish. *)

module Registry = Dmm_obs.Registry
module Event = Dmm_obs.Event
module Trace_ctx = Dmm_obs.Trace_ctx
module Stream = Dmm_check.Stream
module Ingest = Dmm_engine.Ingest
module Sanitizer = Dmm_check.Sanitizer
module Lifetime_sink = Dmm_obs.Lifetime_sink

let jsonl_good =
  String.concat "\n"
    [
      {|{"t":0,"ev":"alloc","payload":16,"gross":24,"tag":0,"addr":100}|};
      {|{"t":1,"ev":"alloc","payload":32,"gross":40,"tag":0,"addr":200}|};
      {|{"t":2,"ev":"free","payload":16,"addr":100}|};
      {|{"t":3,"ev":"free","payload":32,"addr":200}|};
    ]
  ^ "\n"

(* Valid prefix, then garbage: decoding dies mid-stream. *)
let jsonl_bad = {|{"t":0,"ev":"alloc","payload":16,"gross":24,"tag":0,"addr":100}|} ^ "\ngarbage\n"

let counter_value registry name = Registry.value (Registry.counter registry name)
let gauge_value registry name = Registry.gauge_value (Registry.gauge registry name)

let check_fail_accounting () =
  let registry = Registry.create () in
  let ingest = Ingest.create registry in
  let p = Ingest.stream ingest in
  Alcotest.(check int) "active while open" 1 (gauge_value registry "dmm_ingest_active_streams");
  Ingest.feed p { Stream.clock = 0; event = Event.Alloc { payload = 8; gross = 16; tag = 0; addr = 4 } };
  Ingest.fail p;
  Alcotest.(check int) "active back to zero" 0 (gauge_value registry "dmm_ingest_active_streams");
  Alcotest.(check int) "one error" 1 (counter_value registry "dmm_ingest_errors_total");
  Alcotest.(check int) "one stream" 1 (counter_value registry "dmm_ingest_streams_total")

let check_mid_decode_drop_concurrent () =
  let registry = Registry.create () in
  let ingest = Ingest.create registry in
  let shards = 4 in
  let domains =
    Array.init shards (fun _ ->
        Domain.spawn (fun () ->
            let r, _stats =
              Ingest.run_source_observed ingest (Stream.source_of_string jsonl_bad)
            in
            match r with Ok _ -> false | Error _ -> true))
  in
  let all_failed = Array.for_all (fun d -> Domain.join d) domains in
  Alcotest.(check bool) "every stream errored" true all_failed;
  Alcotest.(check int) "active back to zero" 0 (gauge_value registry "dmm_ingest_active_streams");
  Alcotest.(check int) "errors exact" shards (counter_value registry "dmm_ingest_errors_total");
  Alcotest.(check int) "streams exact" shards (counter_value registry "dmm_ingest_streams_total");
  (* The registry is not poisoned: a clean stream still works and lands
     its counts on top of the partial ones. *)
  (match Ingest.run_source ingest (Stream.source_of_string jsonl_good) with
  | Ok s -> Alcotest.(check int) "clean stream events" 4 s.Ingest.report.Dmm_check.Sanitizer.events
  | Error m -> Alcotest.failf "clean stream after failures: %s" m);
  Alcotest.(check int) "errors unchanged" shards (counter_value registry "dmm_ingest_errors_total");
  Alcotest.(check int) "streams counted" (shards + 1) (counter_value registry "dmm_ingest_streams_total")

(* A size above 2^61 has no power-of-two class in an int. The stream must
   still complete, and so must the next one through the same context. *)
let check_hostile_sizes_complete () =
  let hostile =
    String.concat "\n"
      [
        {|{"t":0,"ev":"alloc","payload":8,"gross":2305843009213693953,"tag":4,"addr":4}|};
        {|{"t":1,"ev":"free","payload":8,"addr":4}|};
      ]
    ^ "\n"
  in
  let registry = Registry.create () in
  let ingest = Ingest.create registry in
  let events src =
    match Ingest.run_source ingest (Stream.source_of_string src) with
    | Ok s -> s.Ingest.report.Dmm_check.Sanitizer.events
    | Error m -> Alcotest.failf "stream failed: %s" m
  in
  Alcotest.(check int) "hostile stream completes" 2 (events hostile);
  Alcotest.(check int) "next stream completes" 4 (events jsonl_good);
  Alcotest.(check int) "active back to zero" 0 (gauge_value registry "dmm_ingest_active_streams");
  Alcotest.(check int) "no errors" 0 (counter_value registry "dmm_ingest_errors_total")

(* The object-graph kinds are gone from the format: a stream that still
   carries one is a decode error that fails the stream, not an exception.
   Both encodings raise the same [Parse_error] here; test_codec pins the
   binary tags 8-10. *)
let check_removed_kinds_fail () =
  let registry = Registry.create () in
  let ingest = Ingest.create registry in
  let src = Stream.source_of_string ({|{"t":0,"ev":"root_add","addr":16}|} ^ "\n") in
  (match Ingest.run_source ingest src with
  | Ok _ -> Alcotest.fail "stream with a removed kind accepted"
  | Error m -> Alcotest.(check string) "one-line error" {|line 1: unknown event kind "root_add"|} m);
  Alcotest.(check int) "active back to zero" 0 (gauge_value registry "dmm_ingest_active_streams");
  Alcotest.(check int) "one error" 1 (counter_value registry "dmm_ingest_errors_total")

let check_observed_matches_plain () =
  let run f =
    let registry = Registry.create () in
    let ingest = Ingest.create registry in
    (f ingest (Stream.source_of_string jsonl_good), registry)
  in
  let plain, reg_plain = run Ingest.run_source in
  let observed, reg_obs =
    run (fun i src ->
        let r, stats = Ingest.run_source_observed ~sample:2 i src in
        Alcotest.(check int) "stats events" 4 stats.Ingest.st_events;
        r)
  in
  match (plain, observed) with
  | Ok a, Ok b ->
    Alcotest.(check int) "events agree" a.Ingest.report.Dmm_check.Sanitizer.events
      b.Ingest.report.Dmm_check.Sanitizer.events;
    Alcotest.(check int) "spans agree" a.Ingest.spans b.Ingest.spans;
    List.iter
      (fun name ->
        Alcotest.(check int) name
          (counter_value reg_plain name)
          (counter_value reg_obs name))
      [ "dmm_events_total"; "dmm_allocs_total"; "dmm_frees_total"; "dmm_ingest_streams_total" ]
  | _ -> Alcotest.fail "both drivers should succeed"

let check_health_gate () =
  let registry = Registry.create () in
  let ingest = Ingest.create registry in
  (match Ingest.health ingest with
  | Ingest.Healthy -> ()
  | Ingest.Degraded why -> Alcotest.failf "fresh ingest degraded: %s" why);
  (* One error out of one stream: 100%% > default 5%%. *)
  ignore (Ingest.run_source_observed ingest (Stream.source_of_string jsonl_bad));
  (match Ingest.health ingest with
  | Ingest.Degraded why ->
    Alcotest.(check bool) "names the error rate" true
      (String.length why >= 10 && String.sub why 0 10 = "error rate")
  | Ingest.Healthy -> Alcotest.fail "error-rate breach not detected");
  (* Loosening the gate recovers it — degraded is a verdict, not a latch. *)
  Ingest.set_slo ingest ~max_error_rate:1.0 ();
  (match Ingest.health ingest with
  | Ingest.Healthy -> ()
  | Ingest.Degraded why -> Alcotest.failf "loosened gate still degraded: %s" why);
  (* A 1us p99 bound trips on any real stream; the error-rate check must
     come first only when it also breaches, which it no longer does. *)
  Ingest.set_slo ingest ~max_p99_us:1 ();
  ignore (Ingest.run_source_observed ingest (Stream.source_of_string jsonl_good));
  match Ingest.health ingest with
  | Ingest.Degraded why ->
    Alcotest.(check bool) "names the p99" true
      (String.length why >= 10 && String.sub why 0 10 = "ingest p99")
  | Ingest.Healthy -> Alcotest.fail "p99 breach not detected"

let check_slo_validation () =
  let ingest = Ingest.create (Registry.create ()) in
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Ingest.set_slo: error rate out of [0,1]") (fun () ->
      Ingest.set_slo ingest ~max_error_rate:1.5 ());
  Alcotest.check_raises "negative p99"
    (Invalid_argument "Ingest.set_slo: negative p99 bound") (fun () ->
      Ingest.set_slo ingest ~max_p99_us:(-1) ())

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let check_status_json () =
  let registry = Registry.create () in
  let ingest = Ingest.create registry in
  Ingest.set_shards ingest 3;
  Ingest.shard_enqueue ingest 1;
  Alcotest.(check int) "depth readable" 1 (Ingest.shard_depth ingest 1);
  let body = Ingest.status_json ingest in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains body needle))
    [
      {|"status":"ok"|};
      {|"streams_total":0|};
      {|"shards":3|};
      {|"queue_depths":[0,1,0]|};
      {|"ingest_p99_us":0|};
      {|"stalls_total":0|};
    ];
  Ingest.shard_dequeue ingest 1 ~wait_us:5;
  Alcotest.(check int) "depth drained" 0 (Ingest.shard_depth ingest 1);
  Ingest.note_stall ingest;
  Alcotest.(check bool) "stall counted" true
    (contains (Ingest.status_json ingest) {|"stalls_total":1|})

let check_trace_ctx_roundtrip () =
  let c = Trace_ctx.make () in
  Alcotest.(check int) "trace id width" 32 (String.length c.Trace_ctx.trace_id);
  Alcotest.(check int) "span id width" 16 (String.length c.Trace_ctx.span_id);
  (match Trace_ctx.of_traceparent (Trace_ctx.to_traceparent c) with
  | Ok c' -> Alcotest.(check bool) "traceparent round-trip" true (c = c')
  | Error m -> Alcotest.failf "round-trip failed: %s" m);
  (match Trace_ctx.of_preamble_line (String.trim (Trace_ctx.preamble c)) with
  | Ok c' -> Alcotest.(check bool) "preamble round-trip" true (c = c')
  | Error m -> Alcotest.failf "preamble round-trip failed: %s" m);
  let child = Trace_ctx.child c in
  Alcotest.(check string) "child shares trace" c.Trace_ctx.trace_id child.Trace_ctx.trace_id;
  Alcotest.(check bool) "child gets fresh span" true
    (c.Trace_ctx.span_id <> child.Trace_ctx.span_id);
  List.iter
    (fun bad ->
      match Trace_ctx.of_traceparent bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "";
      "00-zz-yy-01";
      "00-00000000000000000000000000000000-1234567812345678-01";
      "00-12345678123456781234567812345678-0000000000000000-01";
      "ff-12345678123456781234567812345678-1234567812345678-01";
      "garbage";
    ]

let check_prometheus_labels () =
  let registry = Registry.create () in
  let g0 = Registry.gauge ~help:"Depth per shard" registry {|depth{shard="0"}|} in
  let g1 = Registry.gauge ~help:"Depth per shard" registry {|depth{shard="1"}|} in
  Registry.set g0 2;
  Registry.set g1 7;
  let h = Registry.histogram ~help:"Wait" registry {|wait_us{shard="0"}|} in
  Registry.observe h 10;
  let body = Registry.to_prometheus registry in
  let count needle =
    let rec go i acc =
      if i + String.length needle > String.length body then acc
      else if String.sub body i (String.length needle) = needle then
        go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one TYPE header per base" 1 (count "# TYPE depth gauge");
  Alcotest.(check int) "one HELP per base" 1 (count "# HELP depth Depth per shard");
  Alcotest.(check bool) "labelled series" true (contains body {|depth{shard="0"} 2|});
  Alcotest.(check bool) "second series" true (contains body {|depth{shard="1"} 7|});
  Alcotest.(check bool) "quantile splice" true
    (contains body {|wait_us{shard="0",quantile="0.5"}|});
  Alcotest.(check bool) "p999 exposed" true (contains body {|quantile="0.999"|});
  Alcotest.(check bool) "sum suffix before labels" true
    (contains body {|wait_us_sum{shard="0"} 10|});
  Alcotest.(check bool) "count suffix before labels" true
    (contains body {|wait_us_count{shard="0"} 1|})

(* --- qcheck ---------------------------------------------------------------- *)

(* Any alloc/free interleaving rendered to JSONL: the observed driver
   counts every event and the active gauge always returns to zero, on
   clean and truncated streams alike. *)
let qcheck_observed_accounting =
  QCheck.Test.make ~name:"run_source_observed: exact counts, gauge drains" ~count:80
    QCheck.(pair (list (pair small_nat small_nat)) bool)
    (fun (pairs, truncate) ->
      let lines =
        List.concat
          (List.mapi
             (fun i (p, g) ->
               let payload = 1 + p and addr = 64 * (i + 1) in
               let gross = payload + g in
               [
                 Printf.sprintf
                   {|{"t":%d,"ev":"alloc","payload":%d,"gross":%d,"tag":0,"addr":%d}|}
                   (2 * i) payload gross addr;
                 Printf.sprintf {|{"t":%d,"ev":"free","payload":%d,"addr":%d}|}
                   ((2 * i) + 1) payload addr;
               ])
             pairs)
      in
      let n_events = List.length lines in
      let text =
        String.concat "\n" lines ^ "\n" ^ if truncate then "not json\n" else ""
      in
      let registry = Registry.create () in
      let ingest = Ingest.create registry in
      let r, stats =
        Ingest.run_source_observed ~sample:3 ingest (Stream.source_of_string text)
      in
      let ok_shape =
        match r with
        | Ok _ -> (not truncate) || n_events = 0
        | Error _ -> truncate
      in
      (* An empty stream followed by garbage still errors; an empty clean
         stream succeeds. The gauge must drain either way. *)
      let ok_shape = if truncate && n_events = 0 then Result.is_error r else ok_shape in
      ok_shape
      && stats.Ingest.st_events = n_events
      && gauge_value registry "dmm_ingest_active_streams" = 0
      && counter_value registry "dmm_ingest_streams_total" = 1)

let qcheck_trace_ctx_child_chain =
  QCheck.Test.make ~name:"Trace_ctx: child chains keep the trace id and parse" ~count:60
    QCheck.(int_range 1 8)
    (fun depth ->
      let root = Trace_ctx.make () in
      let rec descend c k = if k = 0 then c else descend (Trace_ctx.child c) (k - 1) in
      let leaf = descend root depth in
      leaf.Trace_ctx.trace_id = root.Trace_ctx.trace_id
      && Trace_ctx.of_preamble_line (String.trim (Trace_ctx.preamble leaf)) = Ok leaf)

(* Every event kind, with the ends of the int range and values around
   the size-class limit 2^61 in every field, through the daemon's
   pipeline (both encodings), the sanitizer with its leak pass, and the
   lifetime sink read back in full: each finishes and none raises. *)
let qcheck_hostile_values =
  let field =
    QCheck.Gen.(
      frequency
        [
          (3, int_range (-64) 64);
          ( 3,
            oneofl
              [ 0; 1; -1; min_int; min_int + 1; max_int; max_int - 1; 1 lsl 61; (1 lsl 61) + 1 ] );
          (1, int);
        ])
  in
  let event st =
    let f () = field st in
    match QCheck.Gen.int_bound 7 st with
    | 0 -> Event.Alloc { payload = f (); gross = f (); tag = f (); addr = f () }
    | 1 -> Event.Free { payload = f (); addr = f () }
    | 2 -> Event.Split { addr = f (); parent = f (); taken = f (); remainder = f () }
    | 3 -> Event.Coalesce { addr = f (); merged = f (); absorbed = f () }
    | 4 -> Event.Phase (f ())
    | 5 -> Event.Sbrk { bytes = f (); brk = f () }
    | 6 -> Event.Trim { bytes = f (); brk = f () }
    | _ -> Event.Fit_scan { steps = f () }
  in
  let binary events =
    Temp_file.with_written
      (fun oc ->
        let sink = Dmm_obs.Binary_sink.create ~chunk_events:16 oc in
        List.iteri (fun clock e -> Dmm_obs.Binary_sink.on_event sink clock e) events;
        Dmm_obs.Binary_sink.finish sink)
      Temp_file.read
  in
  let jsonl events =
    String.concat "" (List.mapi (fun clock e -> Event.to_json ~clock e ^ "\n") events)
  in
  QCheck.Test.make ~name:"hostile values in every field finish" ~count:200
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.mapi (fun clock e -> Event.to_json ~clock e) evs))
       QCheck.Gen.(list_size (0 -- 60) event))
    (fun events ->
      let n = List.length events in
      let ingest = Ingest.create (Registry.create ()) in
      let through encoded =
        match Ingest.run_source ingest (Stream.source_of_string encoded) with
        | Ok s -> s.Ingest.report.Sanitizer.events = n
        | Error m -> QCheck.Test.fail_reportf "stream failed: %s" m
      in
      let st = Sanitizer.start () in
      List.iteri (fun clock event -> Sanitizer.feed st { Stream.clock; event }) events;
      let checked = Sanitizer.finalize st in
      let life = Lifetime_sink.create () in
      List.iteri (fun clock e -> Lifetime_sink.on_event life clock e) events;
      let rows = Lifetime_sink.class_rows life and phases = Lifetime_sink.phase_summaries life in
      ignore (Lifetime_sink.leaked_bytes life);
      through (binary events) && through (jsonl events)
      && checked.Sanitizer.events = n
      && List.fold_left (fun acc (r : Lifetime_sink.class_row) -> acc + r.spans) 0 rows
         = List.fold_left (fun acc (p : Lifetime_sink.phase_summary) -> acc + p.s_spans) 0 phases)

let tests =
  ( "ingest",
    [
      Alcotest.test_case "fail accounting" `Quick check_fail_accounting;
      Alcotest.test_case "mid-decode drops under concurrent shards" `Quick
        check_mid_decode_drop_concurrent;
      Alcotest.test_case "hostile sizes complete" `Quick check_hostile_sizes_complete;
      Alcotest.test_case "removed graph kinds fail the stream" `Quick check_removed_kinds_fail;
      Alcotest.test_case "observed driver matches plain" `Quick check_observed_matches_plain;
      Alcotest.test_case "health gate flips and recovers" `Quick check_health_gate;
      Alcotest.test_case "slo validation" `Quick check_slo_validation;
      Alcotest.test_case "status json" `Quick check_status_json;
      Alcotest.test_case "trace context round-trip" `Quick check_trace_ctx_roundtrip;
      Alcotest.test_case "prometheus labels" `Quick check_prometheus_labels;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ qcheck_observed_accounting; qcheck_trace_ctx_child_chain ]
    @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 13 |]) qcheck_hostile_values ] )
