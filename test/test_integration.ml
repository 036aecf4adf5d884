(* Cross-module integration: the paper's headline claims must hold on the
   light-scale workloads too — every custom manager at least matches every
   baseline, Figure 5's curves behave, the order ablation goes the right
   way, and the framework can recreate the baselines' behaviour. *)

module Scenario = Dmm_workloads.Scenario
module Experiments = Dmm_workloads.Experiments
module Trace = Dmm_trace.Trace
module Replay = Dmm_trace.Replay
module DV = Dmm_core.Decision_vector
module M = Dmm_core.Manager
module Address_space = Dmm_vmem.Address_space

let () = Experiments.paper_scale := false

let fp trace make = Scenario.max_footprint trace make

let check_drr_ordering () =
  let trace = Scenario.drr_trace () in
  let custom = fp trace (Scenario.custom_manager (Scenario.drr_paper_design ())) in
  let kingsley = fp trace Scenario.kingsley in
  let lea = fp trace Scenario.lea in
  Alcotest.(check bool)
    (Printf.sprintf "custom (%d) <= lea (%d)" custom lea)
    true (custom <= lea);
  Alcotest.(check bool)
    (Printf.sprintf "custom (%d) < kingsley (%d)" custom kingsley)
    true (custom < kingsley)

let check_reconstruct_ordering () =
  let trace = Scenario.reconstruct_trace () in
  let design = Scenario.design_for trace in
  let custom = fp trace (Scenario.custom_manager design) in
  let kingsley = fp trace Scenario.kingsley in
  let regions = fp trace Scenario.regions in
  Alcotest.(check bool)
    (Printf.sprintf "custom (%d) < regions (%d)" custom regions)
    true (custom < regions);
  Alcotest.(check bool)
    (Printf.sprintf "custom (%d) < kingsley (%d)" custom kingsley)
    true (custom < kingsley)

let check_render_ordering () =
  let trace = Scenario.render_trace () in
  let custom = fp trace (Scenario.custom_global (Scenario.render_paper_design ())) in
  let kingsley = fp trace Scenario.kingsley in
  let lea = fp trace Scenario.lea in
  let obstacks = fp trace Scenario.obstacks in
  Alcotest.(check bool)
    (Printf.sprintf "custom (%d) < obstacks (%d)" custom obstacks)
    true (custom < obstacks);
  Alcotest.(check bool)
    (Printf.sprintf "obstacks (%d) < lea (%d)" obstacks lea)
    true (obstacks < lea);
  Alcotest.(check bool)
    (Printf.sprintf "lea (%d) < kingsley (%d)" lea kingsley)
    true (lea < kingsley)

let check_footprint_lower_bound () =
  (* No manager can beat the peak live payload. *)
  let trace = Scenario.drr_trace () in
  let peak =
    (Dmm_core.Profile.total (Dmm_trace.Profile_builder.of_trace trace))
      .Dmm_core.Profile.peak_live_bytes
  in
  List.iter
    (fun (name, make) ->
      let footprint = fp trace make in
      Alcotest.(check bool)
        (Printf.sprintf "%s (%d) >= peak live (%d)" name footprint peak)
        true (footprint >= peak))
    (Scenario.baselines ()
    @ [ ("custom", Scenario.custom_manager (Scenario.drr_paper_design ())) ])

let check_order_ablation_direction () =
  match Experiments.order_ablation () with
  | [ (_, good); (_, bad) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "wrong order (%d) >= paper order (%d)" bad good)
      true (bad >= good)
  | _ -> Alcotest.fail "unexpected ablation shape"

let check_figure5_series () =
  let series = Experiments.figure5 ~every:500 () in
  Alcotest.(check int) "four curves" 4 (List.length series);
  List.iter
    (fun (name, points) ->
      Alcotest.(check bool) (name ^ " sampled") true (List.length points > 5);
      Alcotest.(check bool)
        (name ^ " peak sane")
        true
        (Dmm_trace.Footprint_series.peak points > 0))
    series

let check_table_structure () =
  let t = Experiments.drr_table ~seeds:1 () in
  Alcotest.(check int) "seven managers" 7 (List.length t.Experiments.rows);
  Alcotest.(check bool) "events counted" true (t.Experiments.events > 0);
  let custom =
    List.find (fun r -> r.Experiments.manager = "custom DM manager") t.Experiments.rows
  in
  Alcotest.(check bool) "paper reference attached" true (custom.Experiments.paper_bytes <> None)

let check_framework_recreates_kingsley () =
  (* Section 3: the space can recreate general-purpose managers. The
     vector-driven Kingsley must behave like the hand-written baseline. *)
  let trace = Scenario.drr_trace () in
  let params =
    {
      M.default_params with
      size_classes = M.pow2_classes ~min:16 ~max:65536;
      return_to_system = false;
    }
  in
  let framework ?probe:_ () =
    M.allocator (M.create ~params DV.kingsley_like (Address_space.create ()))
  in
  let f1 = fp trace framework in
  let f2 = fp trace Scenario.kingsley in
  let ratio = float_of_int f1 /. float_of_int f2 in
  Alcotest.(check bool)
    (Printf.sprintf "framework kingsley (%d) within 30%% of baseline (%d)" f1 f2)
    true
    (ratio > 0.7 && ratio < 1.3)

let check_explored_design_competitive () =
  (* The automated methodology must match the paper's hand derivation. *)
  let trace = Scenario.drr_trace () in
  let hand = fp trace (Scenario.custom_manager (Scenario.drr_paper_design ())) in
  let explored = fp trace (Scenario.custom_manager (Scenario.design_for trace)) in
  Alcotest.(check bool)
    (Printf.sprintf "explored (%d) <= hand-derived (%d)" explored hand)
    true (explored <= hand)

let check_global_manager_on_render () =
  (* The per-phase composition must beat the best single atomic design. *)
  let trace = Scenario.render_trace () in
  let atomic = fp trace (Scenario.custom_manager (Scenario.drr_paper_design ())) in
  let global = fp trace (Scenario.custom_global (Scenario.render_paper_design ())) in
  Alcotest.(check bool)
    (Printf.sprintf "per-phase (%d) <= atomic (%d)" global atomic)
    true (global <= atomic)

(* Random-trace generator shared by the differential properties. *)
let random_trace_gen =
  QCheck.Gen.(
    pair small_nat (list_size (40 -- 150) (pair bool (int_range 1 4000))))

let trace_of (seed, ops) =
  ignore seed;
  let recorder, get = Dmm_trace.Recorder.recording_allocator () in
  let live = ref [] in
  List.iter
    (fun (is_alloc, size) ->
      if is_alloc || !live = [] then
        live := Dmm_core.Allocator.alloc recorder size :: !live
      else begin
        match !live with
        | addr :: rest ->
          live := rest;
          Dmm_core.Allocator.free recorder addr
        | [] -> ()
      end)
    ops;
  get ()

let qcheck =
  [
    QCheck.Test.make ~name:"framework Kingsley tracks the baseline on random traces"
      ~count:60 (QCheck.make random_trace_gen)
      (fun input ->
        let trace = trace_of input in
        let params =
          {
            M.default_params with
            size_classes = M.pow2_classes ~min:16 ~max:65536;
            return_to_system = false;
          }
        in
        let framework ?probe:_ () =
          M.allocator (M.create ~params DV.kingsley_like (Address_space.create ()))
        in
        let f1 = fp trace framework and f2 = fp trace Scenario.kingsley in
        let ratio = float_of_int f1 /. float_of_int (max 1 f2) in
        ratio > 0.5 && ratio < 2.0);
  ]

let tests =
  ( "integration",
    [
      Alcotest.test_case "DRR manager ordering" `Slow check_drr_ordering;
      Alcotest.test_case "reconstruction manager ordering" `Slow check_reconstruct_ordering;
      Alcotest.test_case "render manager ordering" `Slow check_render_ordering;
      Alcotest.test_case "footprint lower bound" `Slow check_footprint_lower_bound;
      Alcotest.test_case "order ablation direction" `Slow check_order_ablation_direction;
      Alcotest.test_case "figure 5 series" `Slow check_figure5_series;
      Alcotest.test_case "table structure" `Slow check_table_structure;
      Alcotest.test_case "framework recreates Kingsley" `Slow check_framework_recreates_kingsley;
      Alcotest.test_case "explored design competitive" `Slow check_explored_design_competitive;
      Alcotest.test_case "per-phase beats atomic on render" `Slow check_global_manager_on_render;
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
