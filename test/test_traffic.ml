module Traffic = Dmm_workloads.Traffic
module Prng = Dmm_util.Prng

(* The list view of a generated run. *)
let generate config = Traffic.to_list (Traffic.generate config)

let check_determinism () =
  let p1 = Traffic.generate Traffic.default_config in
  let p2 = Traffic.generate Traffic.default_config in
  Alcotest.(check bool) "same seed, same packets" true (p1 = p2);
  let p3 = Traffic.generate { Traffic.default_config with seed = 1 } in
  Alcotest.(check bool) "different seed differs" true (p1 <> p3)

let check_sorted_arrivals () =
  let packets = generate Traffic.default_config in
  let rec sorted = function
    | [] | [ _ ] -> true
    | (a : Traffic.packet) :: (b : Traffic.packet) :: rest ->
      a.arrival <= b.arrival && sorted (b :: rest)
  in
  Alcotest.(check bool) "non-decreasing arrivals" true (sorted packets)

let check_bounds () =
  let config = Traffic.default_config in
  let packets = generate config in
  Alcotest.(check bool) "non-empty" true (packets <> []);
  List.iter
    (fun (p : Traffic.packet) ->
      Alcotest.(check bool) "size in internet range" true (p.size >= 40 && p.size <= 1500);
      Alcotest.(check bool) "flow id in range" true (p.flow >= 0 && p.flow < config.flows);
      Alcotest.(check bool) "arrival in duration" true
        (p.arrival >= 0.0 && p.arrival < config.duration))
    packets

let check_dominant_concentration () =
  (* Each flow's size distribution concentrates around its dominant size. *)
  let packets = generate { Traffic.default_config with duration = 3.0 } in
  let by_flow = Hashtbl.create 8 in
  List.iter
    (fun (p : Traffic.packet) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_flow p.flow) in
      Hashtbl.replace by_flow p.flow (p.size :: l))
    packets;
  Hashtbl.iter
    (fun flow sizes ->
      match Traffic.profile_of_flow flow with
      | Traffic.Dominant d ->
        let n = List.length sizes in
        if n > 50 then begin
          let near =
            List.length
              (List.filter (fun s -> s >= d * 85 / 100 && s <= d * 115 / 100) sizes)
          in
          Alcotest.(check bool)
            (Printf.sprintf "flow %d concentrates near %d" flow d)
            true
            (float_of_int near /. float_of_int n > 0.5)
        end
      | Traffic.Bulk | Traffic.Interactive | Traffic.Mixed -> ())
    by_flow

let check_packet_size_profiles () =
  let rng = Prng.create 4 in
  for _ = 1 to 500 do
    let s = Traffic.packet_size rng Traffic.Bulk in
    Alcotest.(check bool) "bulk size sane" true (s >= 40 && s <= 1500)
  done;
  let rng = Prng.create 4 in
  let small =
    List.init 500 (fun _ -> Traffic.packet_size rng Traffic.Interactive)
    |> List.filter (fun s -> s <= 100)
  in
  Alcotest.(check bool) "interactive skews small" true (List.length small > 200)

let check_total_bytes () =
  let packets = Traffic.generate Traffic.default_config in
  let manual =
    List.fold_left (fun acc (p : Traffic.packet) -> acc + p.size) 0 (Traffic.to_list packets)
  in
  Alcotest.(check int) "total bytes" manual (Traffic.total_bytes packets)

let check_paper_config_class_coverage () =
  (* The Table-1 regime needs flows spread across several power-of-two
     classes so per-class hoarding accumulates (EXPERIMENTS.md). *)
  let classes =
    List.sort_uniq compare
      (List.init 10 (fun flow ->
           match Traffic.profile_of_flow flow with
           | Traffic.Dominant d -> Dmm_util.Size.pow2_ceil (d + 4)
           | Traffic.Bulk | Traffic.Interactive | Traffic.Mixed -> 0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "dominant sizes span %d classes" (List.length classes))
    true
    (List.length classes >= 4)

let check_paper_config_generates () =
  (* Flow starts are staggered across [mean_off], so cover it fully. *)
  let packets = generate { Traffic.paper_config with duration = 8.0 } in
  Alcotest.(check bool) "packets produced" true (List.length packets > 100);
  let flows = List.sort_uniq compare (List.map (fun (p : Traffic.packet) -> p.flow) packets) in
  Alcotest.(check bool) "most flows active" true (List.length flows >= 8)

(* The list generator the flat one replaced, kept as its model: per flow
   a list of packet records built newest first, the flows' lists
   concatenated and stably sorted on arrival. *)
module Model = struct
  let rec packet_size rng = function
    | Traffic.Bulk ->
      Prng.choose_weighted rng
        [| (0.70, `Fixed 1500); (0.10, `Fixed 576); (0.05, `Fixed 40); (0.15, `Uniform) |]
      |> (function `Fixed n -> n | `Uniform -> Prng.int_in rng 600 1500)
    | Traffic.Interactive ->
      Prng.choose_weighted rng
        [| (0.55, `Fixed 40); (0.25, `Fixed 576); (0.05, `Fixed 1500); (0.15, `Uniform) |]
      |> (function `Fixed n -> n | `Uniform -> Prng.int_in rng 40 600)
    | Traffic.Mixed ->
      Prng.choose_weighted rng
        [| (0.30, `Fixed 40); (0.25, `Fixed 576); (0.25, `Fixed 1500); (0.20, `Uniform) |]
      |> (function `Fixed n -> n | `Uniform -> Prng.int_in rng 40 1500)
    | Traffic.Dominant d ->
      if Prng.bernoulli rng 0.85 then
        Prng.int_in rng (max 40 (d * 9 / 10)) (min 1500 (d * 11 / 10))
      else packet_size rng Traffic.Mixed

  let pareto_with_mean rng ~shape ~mean =
    let xmin = mean *. (shape -. 1.0) /. shape in
    Float.min (5.0 *. mean) (Prng.pareto rng ~alpha:shape ~xmin)

  let generate_flow rng (config : Traffic.config) flow =
    let profile = Traffic.profile_of_flow flow in
    let pkts_per_sec =
      let mean_size =
        match profile with
        | Traffic.Bulk -> 1200.0
        | Traffic.Interactive -> 250.0
        | Traffic.Mixed -> 700.0
        | Traffic.Dominant d -> float_of_int d
      in
      config.flow_rate_mbps *. 1e6 /. 8.0 /. mean_size
    in
    let start = float_of_int flow *. config.mean_off /. float_of_int (max 1 config.flows) in
    let rec go time acc =
      if time >= config.duration then acc
      else begin
        let burst_len = pareto_with_mean rng ~shape:config.on_shape ~mean:config.mean_on in
        let burst_end = Float.min config.duration (time +. burst_len) in
        let rec emit t acc =
          if t >= burst_end then (t, acc)
          else
            let size = packet_size rng profile in
            let gap = Prng.exponential rng pkts_per_sec in
            emit (t +. gap) ({ Traffic.arrival = t; flow; size } :: acc)
        in
        let _, acc = emit time acc in
        let gap = pareto_with_mean rng ~shape:config.on_shape ~mean:config.mean_off in
        go (burst_end +. gap) acc
      end
    in
    go start []

  let generate (config : Traffic.config) =
    let rng = Prng.create config.seed in
    let all =
      List.concat_map
        (fun flow -> generate_flow (Prng.split rng) config flow)
        (List.init config.flows Fun.id)
    in
    List.sort (fun (p1 : Traffic.packet) p2 -> compare p1.arrival p2.arrival) all
end

(* Mostly short runs; one in four long and busy, 1,200 to about 17,000
   packets, so the generator's chunks of 4,096 packets fill, and a chunk
   boundary falls inside a flow, at every count around it. *)
let gen_config =
  QCheck.Gen.(
    map
      (fun ((flows, duration, rate), (shape, mean_on, mean_off), seed) ->
        {
          Traffic.flows;
          duration;
          flow_rate_mbps = rate;
          on_shape = shape;
          mean_on;
          mean_off;
          seed;
        })
      (frequency
         [
           ( 3,
             triple
               (triple (int_range 1 12) (float_range 0.05 0.6) (float_range 0.5 30.0))
               (triple (float_range 1.1 2.5) (float_range 0.005 0.2) (float_range 0.02 1.5))
               int );
           ( 1,
             triple
               (triple (int_range 1 3) (float_range 0.2 0.8) (float_range 2.0 8.0))
               (triple (float_range 1.1 2.5) (float_range 0.2 1.0) (float_range 0.01 0.1))
               int );
         ]))

let show_config (c : Traffic.config) =
  Printf.sprintf "flows=%d duration=%h rate=%h shape=%h on=%h off=%h seed=%d" c.flows c.duration
    c.flow_rate_mbps c.on_shape c.mean_on c.mean_off c.seed

let prop_matches_list_generator =
  QCheck.Test.make ~name:"flat generator matches the list model" ~count:100
    (QCheck.make ~print:show_config gen_config)
    (fun config ->
      let flat = Traffic.generate config in
      Traffic.to_list flat = Model.generate config
      && Traffic.length flat = Array.length flat.Traffic.arrivals
      && Traffic.length flat = Array.length flat.Traffic.flow_ids)

let check_matches_list_generator_presets () =
  List.iter
    (fun config ->
      Alcotest.(check bool) (show_config config) true
        (Traffic.to_list (Traffic.generate config) = Model.generate config))
    [ Traffic.default_config; { Traffic.default_config with seed = 1 } ]

let check_bad_config () =
  Alcotest.check_raises "no flows" (Invalid_argument "Traffic.generate: bad config")
    (fun () -> ignore (Traffic.generate { Traffic.default_config with flows = 0 }))

let tests =
  ( "traffic",
    [
      Alcotest.test_case "determinism" `Quick check_determinism;
      Alcotest.test_case "sorted arrivals" `Quick check_sorted_arrivals;
      Alcotest.test_case "bounds" `Quick check_bounds;
      Alcotest.test_case "dominant size concentration" `Quick check_dominant_concentration;
      Alcotest.test_case "profile size shapes" `Quick check_packet_size_profiles;
      Alcotest.test_case "total bytes" `Quick check_total_bytes;
      Alcotest.test_case "bad config" `Quick check_bad_config;
      Alcotest.test_case "paper config class coverage" `Quick check_paper_config_class_coverage;
      Alcotest.test_case "paper config generates" `Quick check_paper_config_generates;
      Alcotest.test_case "matches the list model on presets" `Quick
        check_matches_list_generator_presets;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) prop_matches_list_generator;
    ] )
