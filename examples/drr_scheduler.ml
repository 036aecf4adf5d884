(* The paper's first case study, end to end: run the Deficit Round Robin
   scheduler on synthetic internet traffic, profile its DM behaviour,
   derive a custom manager with the methodology and compare its footprint
   against Lea and Kingsley (Table 1, DRR column).

   Run with: dune exec examples/drr_scheduler.exe *)

module Scenario = Dmm_workloads.Scenario
module Traffic = Dmm_workloads.Traffic
module Drr = Dmm_workloads.Drr
module Profile = Dmm_core.Profile
module Explorer = Dmm_core.Explorer
module Trace = Dmm_trace.Trace
module Profile_builder = Dmm_trace.Profile_builder

let () =
  (* 1. Simulate the router on one traffic trace, recording DM behaviour. *)
  let traffic = { Traffic.default_config with duration = 3.0 } in
  let packets = Traffic.generate traffic in
  Format.printf "traffic: %d packets, %d bytes@." (Traffic.length packets)
    (Traffic.total_bytes packets);

  let recorder, get_trace = Dmm_trace.Recorder.recording_allocator () in
  let stats = Drr.run recorder packets in
  Format.printf "drr: %a@.@." Drr.pp_stats stats;
  let trace = get_trace () in

  (* 2. Profile: the request sizes vary a lot (packets of 40..1500 bytes),
     which drives every decision the methodology takes. *)
  let profile = Profile.total (Profile_builder.of_trace trace) in
  Format.printf "profile:@.%a@.@." Profile.pp_summary profile;

  (* 3. Derive the custom manager: ordered walk + simulation refinement. *)
  let design = Scenario.design_for trace in
  Format.printf "derived custom manager:@.%a@.@." Explorer.pp_design design;

  (* 4. Compare against the general-purpose managers of Table 1. *)
  let managers =
    [
      ("Kingsley-Windows", Scenario.kingsley);
      ("Lea-Linux", Scenario.lea);
      ("custom DM manager", Scenario.custom_manager design);
    ]
  in
  let results =
    List.map (fun (name, make) -> (name, Scenario.max_footprint trace make)) managers
  in
  let custom = List.assoc "custom DM manager" results in
  Format.printf "maximum memory footprint:@.";
  List.iter
    (fun (name, fp) ->
      let note =
        if name = "custom DM manager" then ""
        else
          Format.asprintf "  (custom improves by %.0f%%)"
            (100.0 *. (1.0 -. (float_of_int custom /. float_of_int fp)))
      in
      Format.printf "  %-18s %9d B%s@." name fp note)
    results
