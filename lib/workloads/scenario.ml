module Address_space = Dmm_vmem.Address_space
module Allocator = Dmm_core.Allocator
module Explorer = Dmm_core.Explorer
module Manager = Dmm_core.Manager
module Trace = Dmm_trace.Trace
module Recorder = Dmm_trace.Recorder
module Replay = Dmm_trace.Replay
module Profile_builder = Dmm_trace.Profile_builder
module Probe = Dmm_obs.Probe
module Kingsley = Dmm_allocators.Kingsley
module Lea = Dmm_allocators.Lea
module Region = Dmm_allocators.Region
module Obstack = Dmm_allocators.Obstack
module Fixed_pool = Dmm_allocators.Fixed_pool
module Buddy_bitmap = Dmm_allocators.Buddy_bitmap

(* The DRR and rendering traces keep only the DM behaviour, so their runs
   skip the simulated work, whose only output is the checksum. *)
let drr_trace ?(traffic = Traffic.default_config) ?(drr = Drr.default_config) () =
  let recorder, trace = Recorder.recording_allocator () in
  let packets = Traffic.generate traffic in
  let (_ : Drr.stats) = Drr.run ~config:drr ~simulate:false recorder packets in
  trace ()

let reconstruct_trace ?(config = Reconstruct.default_config) () =
  let recorder, trace = Recorder.recording_allocator () in
  let (_ : Reconstruct.stats) = Reconstruct.run ~config recorder in
  trace ()

let render_trace ?(config = Render.default_config) () =
  let recorder, trace = Recorder.recording_allocator () in
  let (_ : Render.stats) = Render.run ~config ~simulate:false recorder in
  trace ()

type maker = ?probe:Probe.t -> unit -> Allocator.t

(* Each maker gives its probe to the address space; the manager built
   over the space emits its service and mechanism events to the same
   probe, so the stream shares a single logical clock. *)
let kingsley ?probe () = Kingsley.allocator (Kingsley.create (Address_space.create ?probe ()))
let lea ?probe () = Lea.allocator (Lea.create (Address_space.create ?probe ()))
let regions ?probe () = Region.allocator (Region.create (Address_space.create ?probe ()))
let obstacks ?probe () = Obstack.allocator (Obstack.create (Address_space.create ?probe ()))

let fixed_pool ?probe () =
  Fixed_pool.allocator (Fixed_pool.create (Address_space.create ?probe ()))

let buddy_bitmap ?probe () =
  Buddy_bitmap.allocator (Buddy_bitmap.create (Address_space.create ?probe ()))

let baselines () =
  [
    ("Kingsley-Windows", kingsley);
    ("Lea-Linux", lea);
    ("Regions", regions);
    ("Obstacks", obstacks);
    ("Fixed-pool", fixed_pool);
    ("Buddy-bitmap", buddy_bitmap);
  ]

let custom_manager (design : Explorer.design) ?probe () =
  Manager.allocator
    (Manager.create ~params:design.params design.vector (Address_space.create ?probe ()))

type global_spec = { default : Explorer.design; overrides : (int * Explorer.design) list }

let custom_global spec ?probe () =
  let gm =
    Dmm_core.Global_manager.create
      (Address_space.create ?probe ())
      ~default:spec.default ~overrides:spec.overrides ()
  in
  Dmm_core.Global_manager.allocator gm

let max_footprint trace (make : maker) = Replay.max_footprint_of trace (make ())

module Span = Dmm_obs.Span

(* The single-phase search on a trace already profiled. *)
let design_of_profile ~alpha trace profile =
  (* Candidate scoring goes through the engine: every candidate replayed on
     the worker pool, bounded by the round's first. *)
  let sim = Dmm_engine.Sim.create trace in
  let score_all = Dmm_engine.Sim.score_all ~alpha sim in
  Explorer.progress (Explorer.Agenda { rounds = 1 });
  Explorer.progress (Explorer.Round { label = "whole-trace" });
  match
    Explorer.explore_batch ~profile:(Dmm_core.Profile.total profile) ~score_all ()
  with
  | Ok (design, _) -> design
  | Error msg -> invalid_arg ("Scenario.design_for: " ^ msg)

let design_for ?(alpha = 0.0) trace =
  design_of_profile ~alpha trace (Profile_builder.of_trace trace)

let global_design_for ?(detect_phases = false) trace =
  let trace = if detect_phases then Dmm_trace.Phase_detect.annotate trace else trace in
  let profile = Profile_builder.of_trace trace in
  match Dmm_core.Profile.phases profile with
  | [] | [ _ ] -> { default = design_of_profile ~alpha:0.0 trace profile; overrides = [] }
  | phases ->
    let heuristic (s : Dmm_core.Profile.phase_summary) =
      match Explorer.heuristic_design s with
      | Ok d -> d
      | Error msg -> invalid_arg ("Scenario.global_design_for: " ^ msg)
    in
    let default = heuristic (Dmm_core.Profile.total profile) in
    let initial = List.map (fun s -> (s.Dmm_core.Profile.phase, heuristic s)) phases in
    let sim = Dmm_engine.Sim.create trace in
    (* One coordinate-descent pass: refine each phase's design with the
       other phases held fixed. A round's candidate 0 is the phase's
       current design, so its spec is the previous round's winner, whose
       exact score bounds the round without a replay. *)
    let refine_one (overrides, incumbent) (s : Dmm_core.Profile.phase_summary) =
      let pid = s.phase in
      Explorer.progress (Explorer.Round { label = Printf.sprintf "phase %d" pid });
      Span.with_span ~args:[ ("phase", pid) ] "scenario.refine-round" @@ fun () ->
      let base = List.assoc pid overrides in
      let with_design d =
        { default; overrides = List.map (fun (p, x) -> (p, if p = pid then d else x)) overrides }
      in
      let best, score =
        (* A phase override changes the whole spec: each candidate is
           scored as the global manager it makes, bounded and fanned out
           to the pool. *)
        Explorer.refine_batch
          ~score_all:(fun ds ->
            Dmm_engine.Sim.score_allocators ?incumbent sim
              (Array.map (fun d () -> custom_global (with_design d) ()) ds))
          (Explorer.candidates s base)
      in
      (List.map (fun (p, x) -> (p, if p = pid then best else x)) overrides, Some score)
    in
    Explorer.progress (Explorer.Agenda { rounds = List.length phases });
    let overrides, _ = List.fold_left refine_one (initial, None) phases in
    { default; overrides }

let drr_paper_design () =
  {
    Explorer.vector = Dmm_core.Decision_vector.drr_custom;
    params = { Manager.default_params with return_to_system = true };
  }

let render_paper_design () =
  let stack_phase =
    {
      Explorer.vector =
        {
          Dmm_core.Decision_vector.drr_custom with
          a1 = Dmm_core.Decision.Singly_linked_list;
          a2 = Dmm_core.Decision.Many_fixed_sizes;
          a3 = Dmm_core.Decision.No_tag;
          a4 = Dmm_core.Decision.No_info;
          a5 = Dmm_core.Decision.No_flexibility;
          b1 = Dmm_core.Decision.Pool_per_size;
          b3 = Dmm_core.Decision.Pool_set_per_phase;
          b4 = Dmm_core.Decision.Variable_pool_count;
          c1 = Dmm_core.Decision.First_fit;
          d1 = Dmm_core.Decision.One_size;
          d2 = Dmm_core.Decision.Never;
          e1 = Dmm_core.Decision.One_size;
          e2 = Dmm_core.Decision.Never;
        };
      params =
        {
          Manager.default_params with
          size_classes = [ 24; 32; 40; 48; 56; 64; 72; 80; 88; 96; 128 ];
          return_to_system = true;
        };
    }
  in
  let compositing_phase = drr_paper_design () in
  (* Phase 1's detail batches change size from cycle to cycle, so fixed
     per-size pools would accumulate one peak per size; the coalescing
     manager tracks the live set instead. *)
  {
    default = stack_phase;
    overrides = [ (0, stack_phase); (1, compositing_phase); (2, compositing_phase) ];
  }
