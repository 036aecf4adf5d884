(* The per-layer suite of the traced run: each layer driven on its own
   through its public functions, on inputs built from the seed at quick
   scale (the seed's DRR trace, and the streams it yields under Lea and
   under Kingsley). The suite is the same in every workload; what differs
   between workloads is the traced iteration that [Main] attributes with
   spans. Every figure is the median of [reps] runs after one warmup run;
   allocation counts come from one extra run under [Measure.with_gc]. *)

module Experiments = Dmm_workloads.Experiments
module Scenario = Dmm_workloads.Scenario
module Explorer = Dmm_core.Explorer
module Profile = Dmm_core.Profile
module Allocator = Dmm_core.Allocator
module Block = Dmm_core.Block
module Free_structure = Dmm_core.Free_structure
module Decision = Dmm_core.Decision
module Trace = Dmm_trace.Trace
module Replay = Dmm_trace.Replay
module Profile_builder = Dmm_trace.Profile_builder
module Pool = Dmm_engine.Pool
module Sim = Dmm_engine.Sim
module Ingest = Dmm_engine.Ingest
module Stream = Dmm_check.Stream
module Sanitizer = Dmm_check.Sanitizer
module Probe = Dmm_obs.Probe
module Registry = Dmm_obs.Registry

type metric = string * float * string

(* Median of [reps] timed runs after one warmup run; a single run
   (the smoke run) is timed cold. *)
let median_time ~reps f =
  if reps > 1 then ignore (f ());
  Measure.median (List.init reps (fun _ -> snd (Measure.time f)))

let managers : (string * Scenario.maker) list =
  [
    ("kingsley", Scenario.kingsley);
    ("lea", Scenario.lea);
    ("regions", Scenario.regions);
    ("obstacks", Scenario.obstacks);
    ("fixed_pool", Scenario.fixed_pool);
    ("buddy_bitmap", Scenario.buddy_bitmap);
    ("custom", Scenario.custom_manager (Scenario.drr_paper_design ()));
  ]

(* Replay cost per manager: time, abstract operations and minor-heap words
   per trace event. *)
let replay ~reps trace =
  let len = float_of_int (Trace.length trace) in
  let live_hint = Trace.peak_live_count trace in
  List.concat_map
    (fun (m, (make : Scenario.maker)) ->
      let once () =
        let a = make () in
        Replay.run ~live_hint trace a;
        a
      in
      let secs = Spans.span ("replay " ^ m) (fun _ -> median_time ~reps once) in
      let a, gc = Measure.with_gc once in
      [
        (Printf.sprintf "replay.%s.ns_per_event" m, secs *. 1e9 /. len, "ns");
        (Printf.sprintf "replay.%s.ops_per_event" m, float_of_int (Allocator.stats a).Dmm_core.Metrics.ops /. len, "ops");
        (Printf.sprintf "replay.%s.minor_words_per_event" m, gc.minor_words /. len, "words");
      ])
    managers

(* A free structure driven directly by the trace's request sequence:
   every allocation takes a fitting free block or carves a new one, every
   free inserts its block back. No splitting or coalescing, so the cost is
   the structure's search alone. *)
let free_structure ~reps trace =
  let slot_of = Hashtbl.create 1024 in
  let ops =
    List.filter_map
      (function
        | Dmm_trace.Event.Alloc { id; size } ->
          let s = Hashtbl.length slot_of in
          Hashtbl.replace slot_of id s;
          Some (s, size)
        | Dmm_trace.Event.Free { id } -> Some (Hashtbl.find slot_of id, -1)
        | Dmm_trace.Event.Phase _ -> None)
      (Trace.to_list trace)
    |> Array.of_list
  in
  let n = float_of_int (Array.length ops) in
  let drive structure fit () =
    let fs = Free_structure.create structure in
    let held = Array.make (Hashtbl.length slot_of) Block.none in
    let brk = ref 0 in
    Array.iter
      (fun (s, size) ->
        if size > 0 then begin
          match Free_structure.take_fit fs fit size with
          | Some b ->
            b.Block.status <- Block.Used;
            held.(s) <- b
          | None ->
            held.(s) <- Block.v ~addr:!brk ~size ~status:Block.Used ~run_id:0;
            brk := !brk + size
        end
        else begin
          let b = held.(s) in
          b.Block.status <- Block.Free;
          Free_structure.insert fs b
        end)
      ops;
    fs
  in
  List.concat_map
    (fun (sname, structure) ->
      List.concat_map
        (fun (fname, fit) ->
          let name = Printf.sprintf "free_structure.%s.%s" sname fname in
          let secs = Spans.span name (fun _ -> median_time ~reps (drive structure fit)) in
          let steps = Free_structure.steps (drive structure fit ()) in
          [ (name ^ ".ns_per_op", secs *. 1e9 /. n, "ns"); (name ^ ".steps_per_op", float_of_int steps /. n, "steps") ])
        [ ("first", Decision.First_fit); ("exact", Decision.Exact_fit) ])
    [
      ("sll", Decision.Singly_linked_list);
      ("dll", Decision.Doubly_linked_list);
      ("addr_list", Decision.Address_ordered_list);
      ("size_tree", Decision.Size_ordered_tree);
    ]

(* The methodology's single-phase search, one public call at a time. *)
let explorer ~reps trace =
  let timed name f = (name, Spans.span name (fun _ -> median_time ~reps f), "s") in
  let profile = Profile.total (Profile_builder.of_trace trace) in
  let base = Workloads.Explore.heuristic profile in
  let cands = Array.of_list (Explorer.candidates profile base) in
  let sim = Sim.create trace in
  ignore (Sim.outcomes sim cands);
  [
    timed "profile.s" (fun () -> Profile_builder.of_trace trace);
    timed "explorer.heuristic.s" (fun () -> Workloads.Explore.heuristic profile);
    timed "explorer.candidates.s" (fun () -> Explorer.candidates profile base);
    ("explorer.candidates.count", float_of_int (Array.length cands), "count");
    timed "sim.outcomes.s" (fun () -> Sim.outcomes (Sim.create trace) cands);
    ("sim.replays", float_of_int (Sim.replays sim), "count");
    ("sim.replay_events", float_of_int (Sim.replays sim * Trace.length trace), "count");
  ]

(* Fixed cost of one parallel map, and how busy the workers stay when the
   tasks are the seven manager replays of one trace. *)
let pool ~reps ~render trace =
  let overhead = Spans.span "pool.map trivial" (fun _ -> median_time ~reps:(10 * reps) (fun () -> Pool.map [| 0; 1 |] Fun.id)) in
  let live_hint = Trace.peak_live_count trace in
  let busy () =
    let tasks, wall =
      Measure.time (fun () ->
          Pool.map (Array.of_list managers) (fun (_, (make : Scenario.maker)) ->
              snd (Measure.time (fun () -> Replay.run ~live_hint trace (make ())))))
    in
    Array.fold_left ( +. ) 0.0 tasks /. (float_of_int (Pool.jobs ()) *. wall)
  in
  let refine () =
    Spans.span "global_design render" (fun id ->
        ignore (Workloads.Explore.split ~parent:id render : Scenario.global_spec);
        Spans.total_below id "phase_refine")
  in
  if reps > 1 then ignore (refine ());
  [
    ("pool.map_overhead_us", overhead *. 1e6, "us");
    ("pool.busy_frac", Measure.median (List.init reps (fun _ -> busy ())), "ratio");
    ("phase_refine.s", Measure.median (List.init reps (fun _ -> refine ())), "s");
  ]

let decoded s =
  let acc = ref [] in
  match Stream.iter_source (Stream.source_of_string s) ~f:(fun e -> acc := e :: !acc) with
  | Ok _ -> Array.of_list (List.rev !acc)
  | Error m -> failwith ("decode: " ^ m)

(* The ingest path on one stream, stage by stage: decode, sanitizer,
   each sink of the pipeline behind a probe, the whole pipeline, its
   [finish], and [run_source] (decode and pipeline together). *)
let stream_layers ~reps kind (st : Serve_load.stream) =
  let entries = decoded st.bytes in
  let n = float_of_int (Array.length entries) in
  let per_event name f =
    let secs = Spans.span (name ^ " " ^ kind) (fun _ -> median_time ~reps f) in
    (Printf.sprintf "%s.%s.ns_per_event" name kind, secs *. 1e9 /. n, "ns")
  in
  let words name f =
    let _, gc = Measure.with_gc f in
    (Printf.sprintf "%s.%s.minor_words_per_event" name kind, gc.minor_words /. n, "words")
  in
  let decode () = Stream.iter_source (Stream.source_of_string st.bytes) ~f:ignore in
  let sanitize () =
    let s = Sanitizer.start () in
    Array.iter (Sanitizer.feed s) entries;
    let r = Sanitizer.finalize s in
    if not (Sanitizer.clean r) then failwith ("sanitizer diagnostics on " ^ st.label)
  in
  let through_probe attach () =
    let p = Probe.create () in
    let after = attach p in
    Array.iter (fun (e : Stream.entry) -> Probe.emit p e.event) entries;
    after ()
  in
  let registry p =
    let s = Dmm_obs.Registry_sink.create (Registry.create ()) in
    Dmm_obs.Registry_sink.attach p s;
    fun () -> Dmm_obs.Registry_sink.flush s
  in
  let hist p =
    Dmm_obs.Hist_sink.attach p (Dmm_obs.Hist_sink.create ());
    ignore
  in
  let lifetime p =
    Dmm_obs.Lifetime_sink.attach p (Dmm_obs.Lifetime_sink.create ());
    ignore
  in
  let ctx = Ingest.create (Registry.create ()) in
  let pipeline () =
    let p = Ingest.stream ctx in
    Array.iter (Ingest.feed p) entries;
    p
  in
  let finish_us =
    ignore (Ingest.finish (pipeline ()));
    Measure.median
      (List.init reps (fun _ ->
           let p = pipeline () in
           snd (Measure.time (fun () -> Ingest.finish p))))
    *. 1e6
  in
  [
    per_event "decode" decode;
    words "decode" decode;
    per_event "sanitizer" sanitize;
    words "sanitizer" sanitize;
    per_event "sink.registry" (through_probe registry);
    per_event "sink.hist" (through_probe hist);
    per_event "sink.lifetime" (through_probe lifetime);
    per_event "ingest.pipeline" (fun () -> Ingest.finish (pipeline ()));
    (Printf.sprintf "ingest.finish_us.%s" kind, finish_us, "us");
    per_event "ingest.run_source" (fun () -> Ingest.run_source ctx (Stream.source_of_string st.bytes));
  ]

(* A short [dmm serve] session with an access log: the daemon's own
   per-connection queue wait and stage times, over the small stream sent
   eight times on each of two connections (twice in the smoke run). *)
let serve ctx (st : Serve_load.stream) =
  let log = Filename.concat ctx.Workloads.dir (Printf.sprintf "access-%d.jsonl" (Unix.getpid ())) in
  let per_conn = if ctx.smoke then 2 else 8 in
  let d = Serve_load.start ~access_log:log ~dmm:ctx.dmm ~dir:ctx.dir ~exit_after:(2 * per_conn) () in
  let orders = Array.make 2 (List.init per_conn (fun _ -> st)) in
  let results = Spans.span "serve session" (fun id -> Serve_load.round ~parent:id d orders) in
  let exit = Serve_load.wait d in
  if not (exit.status_ok && List.for_all Serve_load.ok results) then failwith "serve session: a stream failed";
  let records = List.filter (( <> ) "") (String.split_on_char '\n' (Measure.read_file log)) in
  Sys.remove log;
  let field k =
    List.filter_map
      (fun line ->
        match Json.parse line with
        | Ok j -> Option.map (fun v -> Json.to_float_exn v /. 1000.0) (Json.member k j)
        | Error _ -> None)
      records
  in
  [
    ("serve.queue_wait_ms.p90", Measure.quantile 0.9 (field "wait_us"), "ms");
    ("serve.decode_ms.p50", Measure.median (field "decode_us"), "ms");
    ("serve.feed_ms.p50", Measure.median (field "feed_us"), "ms");
  ]

let run (ctx : Workloads.ctx) : metric list =
  let reps = if ctx.smoke then 1 else 5 in
  Experiments.paper_scale := false;
  let gen () =
    ( Experiments.drr_trace_seed ctx.seed,
      Experiments.reconstruct_trace_seed ctx.seed,
      Experiments.render_trace_seed ctx.seed )
  in
  let tracegen = Spans.span "tracegen" (fun _ -> median_time ~reps gen) in
  let trace, _, render = gen () in
  let trace = Workloads.smoke_prefix ctx trace and render = Workloads.smoke_prefix ctx render in
  let large = Serve_load.encode ~dir:ctx.dir ~label:"drr/lea" trace Scenario.lea in
  let small = Serve_load.encode ~dir:ctx.dir ~label:"drr/kingsley" trace Scenario.kingsley in
  (("tracegen.s", tracegen, "s") :: replay ~reps trace)
  @ free_structure ~reps trace
  @ explorer ~reps trace
  @ pool ~reps ~render trace
  @ stream_layers ~reps "large" large
  @ stream_layers ~reps "small" small
  @ serve ctx small
