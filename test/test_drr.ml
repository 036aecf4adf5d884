module Traffic = Dmm_workloads.Traffic
module Drr = Dmm_workloads.Drr
module Recorder = Dmm_trace.Recorder
module Trace = Dmm_trace.Trace
module Allocator = Dmm_core.Allocator

let run_with_recorder ?config packets =
  let a, get = Recorder.recording_allocator () in
  let stats = Drr.run ?config a packets in
  (stats, get (), a)

let packets = Traffic.generate Traffic.default_config

let check_conservation () =
  let stats, _, _ = run_with_recorder packets in
  Alcotest.(check int) "in = out + dropped" stats.Drr.packets_in
    (stats.Drr.packets_out + stats.Drr.packets_dropped);
  Alcotest.(check int) "nothing dropped without limits" 0 stats.Drr.packets_dropped;
  Alcotest.(check int) "all packets arrived" (Traffic.length packets) stats.Drr.packets_in

let check_all_memory_freed () =
  let _, trace, a = run_with_recorder packets in
  Alcotest.(check int) "no leaks" 0 (Trace.live_at_end trace);
  Alcotest.(check int) "live payload zero" 0 (Allocator.current_footprint a);
  match Trace.validate trace with Ok () -> () | Error m -> Alcotest.fail m

let check_backlog_accounting () =
  let stats, _, a = run_with_recorder packets in
  (* Peak recorded payload = backlog bytes + queue nodes. *)
  let max_alloc = Allocator.max_footprint a in
  Alcotest.(check bool) "peak live covers peak backlog" true
    (max_alloc >= stats.Drr.max_backlog_bytes);
  Alcotest.(check bool) "backlog positive for bursty input" true
    (stats.Drr.max_backlog_bytes > 0)

let check_flow_queue_limit () =
  let config = { Drr.default_config with flow_queue_limit = Some 4096 } in
  let stats, _, _ = run_with_recorder ~config packets in
  Alcotest.(check bool) "some packets dropped" true (stats.Drr.packets_dropped > 0);
  Alcotest.(check bool) "backlog bounded by flows x limit" true
    (stats.Drr.max_backlog_bytes <= 4096 * Traffic.default_config.Traffic.flows)

let check_total_queue_limit () =
  let config = { Drr.default_config with total_queue_limit = Some 16384 } in
  let stats, _, _ = run_with_recorder ~config packets in
  (* The cap admits the packet that reaches the limit, never exceeds it by
     more than one maximum-size packet. *)
  Alcotest.(check bool) "shared buffer respected" true
    (stats.Drr.max_backlog_bytes <= 16384);
  Alcotest.(check bool) "drops happened" true (stats.Drr.packets_dropped > 0)

let check_fairness_under_overload () =
  (* Saturate the output link with symmetric flows: DRR must serve them
     near-equally (Shreedhar & Varghese's throughput-fairness property). *)
  let traffic =
    {
      Traffic.default_config with
      flows = 4;
      duration = 2.0;
      flow_rate_mbps = 30.0;
      mean_on = 10.0 (* effectively always on *);
      mean_off = 0.001;
    }
  in
  let packets = Traffic.generate traffic in
  (* Per-flow buffers isolate admission: the fairness measured is DRR's
     service fairness, not shared-buffer contention. *)
  let config = { Drr.default_config with flow_queue_limit = Some 16384 } in
  let stats, _, _ = run_with_recorder ~config packets in
  let sent = List.map snd stats.Drr.per_flow_bytes in
  let mx = List.fold_left max 0 sent and mn = List.fold_left min max_int sent in
  Alcotest.(check int) "all flows served" 4 (List.length sent);
  Alcotest.(check bool)
    (Printf.sprintf "per-flow bytes within 25%% (min=%d max=%d)" mn mx)
    true
    (float_of_int mn >= 0.75 *. float_of_int mx)

let check_determinism () =
  let s1, t1, _ = run_with_recorder packets in
  let s2, t2, _ = run_with_recorder packets in
  Alcotest.(check int) "checksum deterministic" s1.Drr.checksum s2.Drr.checksum;
  Alcotest.(check bool) "traces identical" true (Trace.to_list t1 = Trace.to_list t2)

let check_finish_time_advances () =
  let stats, _, _ = run_with_recorder packets in
  Alcotest.(check bool) "finish after first arrival" true (stats.Drr.finish_time > 0.0);
  Alcotest.(check bool) "bytes forwarded" true (stats.Drr.bytes_out > 0)

let check_bad_config () =
  Alcotest.check_raises "bad quantum" (Invalid_argument "Drr.run: bad config") (fun () ->
      let a, _ = Recorder.recording_allocator () in
      ignore (Drr.run ~config:{ Drr.default_config with quantum = 0 } a packets))

let check_deficit_accumulates () =
  (* The defining DRR mechanism: a quantum smaller than the packet size
     still makes progress because the deficit carries over between rounds
     (Shreedhar & Varghese, Section 3). *)
  let config = { Drr.default_config with quantum = 200 } in
  let stats, _, _ = run_with_recorder ~config packets in
  Alcotest.(check int) "everything still delivered" stats.Drr.packets_in
    stats.Drr.packets_out

let check_combined_limits () =
  let config =
    { Drr.default_config with flow_queue_limit = Some 8192; total_queue_limit = Some 16384 }
  in
  let stats, trace, _ = run_with_recorder ~config packets in
  Alcotest.(check bool) "shared cap respected" true
    (stats.Drr.max_backlog_bytes <= 16384);
  Alcotest.(check int) "conservation with drops" stats.Drr.packets_in
    (stats.Drr.packets_out + stats.Drr.packets_dropped);
  Alcotest.(check int) "no leaks despite drops" 0 (Trace.live_at_end trace)

let check_quantum_respected () =
  (* With a quantum as large as the biggest packet, every backlogged flow
     sends at least one packet per round; the simulation must terminate and
     deliver everything. *)
  let config = { Drr.default_config with quantum = 1500 } in
  let stats, _, _ = run_with_recorder ~config packets in
  Alcotest.(check int) "everything delivered" stats.Drr.packets_in stats.Drr.packets_out

(* The [Queue]/[Hashtbl] scheduler the flat one replaced, kept as its
   model: it reads the list view of the packets. *)
module Model = struct
  type queued = { buf : int; node : int; psize : int }

  type flow_state = {
    queue : queued Queue.t;
    mutable deficit : int;
    mutable active : bool;
    mutable sent_bytes : int;
    mutable backlog : int;
  }

  let run (config : Drr.config) a (packets : Traffic.packet list) =
    let flows = Hashtbl.create 16 in
    let flow_state id =
      match Hashtbl.find_opt flows id with
      | Some f -> f
      | None ->
        let f =
          { queue = Queue.create (); deficit = 0; active = false; sent_bytes = 0; backlog = 0 }
        in
        Hashtbl.replace flows id f;
        f
    in
    let active : flow_state Queue.t = Queue.create () in
    let arrivals = ref packets in
    let sim_time = ref 0.0 in
    let backlog_bytes = ref 0 and backlog_packets = ref 0 in
    let max_backlog_bytes = ref 0 and max_backlog_packets = ref 0 in
    let checksum = ref 0 and packets_in = ref 0 and packets_dropped = ref 0 in
    let packets_out = ref 0 and bytes_out = ref 0 and finish_time = ref 0.0 in
    let bytes_per_sec = config.service_rate_mbps *. 1e6 /. 8.0 in
    let process checksum size =
      let acc = ref checksum in
      for i = 1 to size do
        acc := (!acc * 31) + i
      done;
      !acc land 0x3FFFFFFF
    in
    let enqueue (p : Traffic.packet) =
      incr packets_in;
      let f = flow_state p.flow in
      let over limit backlog = match limit with Some l -> backlog + p.size > l | None -> false in
      if over config.flow_queue_limit f.backlog || over config.total_queue_limit !backlog_bytes
      then incr packets_dropped
      else begin
        checksum := process !checksum p.size;
        let buf = Allocator.alloc a p.size in
        let node = Allocator.alloc a config.queue_node_bytes in
        Queue.add { buf; node; psize = p.size } f.queue;
        f.backlog <- f.backlog + p.size;
        if not f.active then begin
          f.active <- true;
          f.deficit <- 0;
          Queue.add f active
        end;
        backlog_bytes := !backlog_bytes + p.size;
        incr backlog_packets;
        if !backlog_bytes > !max_backlog_bytes then max_backlog_bytes := !backlog_bytes;
        if !backlog_packets > !max_backlog_packets then max_backlog_packets := !backlog_packets
      end
    in
    let rec admit_due () =
      match !arrivals with
      | p :: rest when p.Traffic.arrival <= !sim_time ->
        arrivals := rest;
        enqueue p;
        admit_due ()
      | _ :: _ | [] -> ()
    in
    let transmit f q =
      checksum := process !checksum q.psize;
      Allocator.free a q.buf;
      Allocator.free a q.node;
      f.sent_bytes <- f.sent_bytes + q.psize;
      f.backlog <- f.backlog - q.psize;
      incr packets_out;
      bytes_out := !bytes_out + q.psize;
      backlog_bytes := !backlog_bytes - q.psize;
      decr backlog_packets;
      sim_time := !sim_time +. (float_of_int q.psize /. bytes_per_sec);
      finish_time := !sim_time;
      admit_due ()
    in
    let serve_turn () =
      let f = Queue.pop active in
      f.deficit <- f.deficit + config.quantum;
      let rec drain () =
        match Queue.peek_opt f.queue with
        | Some q when q.psize <= f.deficit ->
          ignore (Queue.pop f.queue);
          f.deficit <- f.deficit - q.psize;
          transmit f q;
          drain ()
        | Some _ | None -> ()
      in
      drain ();
      if Queue.is_empty f.queue then begin
        f.active <- false;
        f.deficit <- 0
      end
      else Queue.add f active
    in
    let rec loop () =
      if Queue.is_empty active then begin
        match !arrivals with
        | [] -> ()
        | p :: _ ->
          sim_time := Float.max !sim_time p.Traffic.arrival;
          admit_due ();
          loop ()
      end
      else begin
        serve_turn ();
        loop ()
      end
    in
    loop ();
    let per_flow_bytes =
      Hashtbl.fold (fun id f acc -> (id, f.sent_bytes) :: acc) flows []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    {
      Drr.packets_in = !packets_in;
      packets_dropped = !packets_dropped;
      packets_out = !packets_out;
      bytes_out = !bytes_out;
      max_backlog_bytes = !max_backlog_bytes;
      max_backlog_packets = !max_backlog_packets;
      per_flow_bytes;
      finish_time = !finish_time;
      checksum = !checksum;
    }
end

(* Keep only the packets of the flows [keep] accepts: the flow ids then
   have gaps, and a flow below the highest id may see no packet. *)
let filter_flows keep (p : Traffic.t) =
  let idx = List.filter (fun i -> keep p.flow_ids.(i)) (List.init (Traffic.length p) Fun.id) in
  let pick a = Array.of_list (List.map (fun i -> a.(i)) idx) in
  {
    Traffic.arrivals = Array.of_list (List.map (fun i -> p.arrivals.(i)) idx);
    flow_ids = pick p.flow_ids;
    sizes = pick p.sizes;
  }

let gen_case =
  QCheck.Gen.(
    let limit bound = opt (int_range 1500 bound) in
    map
      (fun ((seed, flows, duration), (quantum, flow_limit, total_limit), mask) ->
        ( { Traffic.default_config with seed; flows; duration },
          {
            Drr.default_config with
            quantum;
            flow_queue_limit = flow_limit;
            total_queue_limit = total_limit;
          },
          mask ))
      (triple
         (triple int (int_range 1 8) (float_range 0.05 0.6))
         (triple (oneof [ int_range 1 200; int_range 200 3000 ]) (limit 20000) (limit 60000))
         (int_bound 255)))

let show_case ((t : Traffic.config), (d : Drr.config), mask) =
  let opt = function Some l -> string_of_int l | None -> "none" in
  Printf.sprintf "seed=%d flows=%d duration=%h quantum=%d flow_limit=%s total_limit=%s mask=%d"
    t.seed t.flows t.duration d.quantum (opt d.flow_queue_limit) (opt d.total_queue_limit) mask

let prop_matches_queue_model =
  QCheck.Test.make ~name:"flat scheduler matches the Queue model" ~count:120
    (QCheck.make ~print:show_case gen_case)
    (fun (traffic, config, mask) ->
      (* Bit [f] of [mask] drops flow [f]'s packets (flow 0 always stays). *)
      let packets =
        filter_flows (fun f -> f = 0 || mask land (1 lsl f) = 0) (Traffic.generate traffic)
      in
      let a, get = Recorder.recording_allocator () in
      let stats = Drr.run ~config a packets in
      let b, get_model = Recorder.recording_allocator () in
      let model = Model.run config b (Traffic.to_list packets) in
      stats = model && Trace.to_list (get ()) = Trace.to_list (get_model ()))

(* The recording path ([Scenario.drr_trace], which skips the simulated
   processing) against a live run with it on: the same events, and the
   live run's checksum as the generator has always produced it. *)
let check_recording_matches_live () =
  List.iter
    (fun (label, (traffic : Traffic.config), config, checksum) ->
      let stats, live, _ = run_with_recorder ~config (Traffic.generate traffic) in
      Alcotest.(check int) (label ^ ": live checksum") checksum stats.Drr.checksum;
      Same_trace.check label live (Dmm_workloads.Scenario.drr_trace ~traffic ~drr:config ()))
    [
      ("quick", Traffic.default_config, Drr.default_config, 482299110);
      ("paper seed 1", { Traffic.paper_config with seed = 1 }, Drr.paper_config, 311939066);
      ("paper seed 2", { Traffic.paper_config with seed = 2 }, Drr.paper_config, 715958050);
    ]

(* Skipping the processing changes the checksum alone: the manager sees
   the same calls and every other statistic is the same. *)
let prop_skip_matches_live =
  QCheck.Test.make ~name:"skipped processing records the live run's trace" ~count:60
    (QCheck.make ~print:show_case gen_case)
    (fun (traffic, config, mask) ->
      let packets =
        filter_flows (fun f -> f = 0 || mask land (1 lsl f) = 0) (Traffic.generate traffic)
      in
      let live_stats, live, _ = run_with_recorder ~config packets in
      let a, get = Recorder.recording_allocator () in
      let skip_stats = Drr.run ~config ~simulate:false a packets in
      skip_stats.Drr.checksum = 0
      && { skip_stats with Drr.checksum = live_stats.Drr.checksum } = live_stats
      && Same_trace.first_difference live (get ()) = None)

let tests =
  ( "drr",
    [
      Alcotest.test_case "packet conservation" `Quick check_conservation;
      Alcotest.test_case "all memory freed" `Quick check_all_memory_freed;
      Alcotest.test_case "backlog accounting" `Quick check_backlog_accounting;
      Alcotest.test_case "per-flow queue limit" `Quick check_flow_queue_limit;
      Alcotest.test_case "shared buffer limit" `Quick check_total_queue_limit;
      Alcotest.test_case "fairness under overload" `Quick check_fairness_under_overload;
      Alcotest.test_case "determinism" `Quick check_determinism;
      Alcotest.test_case "finish time advances" `Quick check_finish_time_advances;
      Alcotest.test_case "bad config" `Quick check_bad_config;
      Alcotest.test_case "quantum respected" `Quick check_quantum_respected;
      Alcotest.test_case "deficit accumulates across rounds" `Quick check_deficit_accumulates;
      Alcotest.test_case "combined queue limits" `Quick check_combined_limits;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) prop_matches_queue_model;
      Alcotest.test_case "recording path matches the live run" `Quick
        check_recording_matches_live;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |]) prop_skip_matches_live;
    ] )
