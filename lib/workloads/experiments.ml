module Allocator = Dmm_core.Allocator
module Explorer = Dmm_core.Explorer
module Profile = Dmm_core.Profile
module Trace = Dmm_trace.Trace
module Replay = Dmm_trace.Replay
module Footprint_series = Dmm_trace.Footprint_series
module Profile_builder = Dmm_trace.Profile_builder
module Pool = Dmm_engine.Pool
module Sim = Dmm_engine.Sim
module Probe = Dmm_obs.Probe
module Series_sink = Dmm_obs.Series_sink

type row = {
  manager : string;
  footprint : int;
  spread_pct : float;
  paper_bytes : int option;
  ops : int;
  replay_seconds : float;
}

type table = { workload : string; events : int; peak_live : int; rows : row list }

let paper_scale = ref true

let drr_name = "DRR scheduler"
let reconstruct_name = "3D image reconstruction"
let render_name = "3D scalable rendering"

(* Table 1 of the paper, in bytes ("-" cells are None). *)
let paper_reference workload manager =
  match (workload, manager) with
  | "DRR scheduler", "Kingsley-Windows" -> Some 2_090_000
  | "DRR scheduler", "Lea-Linux" -> Some 234_000
  | "DRR scheduler", "custom DM manager" -> Some 148_000
  | "3D image reconstruction", "Kingsley-Windows" -> Some 2_260_000
  | "3D image reconstruction", "Regions" -> Some 2_080_000
  | "3D image reconstruction", "custom DM manager" -> Some 1_490_000
  | "3D scalable rendering", "Kingsley-Windows" -> Some 3_960_000
  | "3D scalable rendering", "Lea-Linux" -> Some 1_860_000
  | "3D scalable rendering", "Obstacks" -> Some 1_550_000
  | "3D scalable rendering", "custom DM manager" -> Some 1_070_000
  | _, _ -> None

let drr_trace_seed seed =
  let traffic =
    if !paper_scale then { Traffic.paper_config with seed }
    else { Traffic.default_config with seed }
  in
  let drr = if !paper_scale then Drr.paper_config else Drr.default_config in
  Scenario.drr_trace ~traffic ~drr ()

let reconstruct_trace_seed seed =
  let config =
    if !paper_scale then { Reconstruct.paper_config with seed }
    else { Reconstruct.default_config with seed }
  in
  Scenario.reconstruct_trace ~config ()

let render_trace_seed seed =
  let config =
    if !paper_scale then { Render.paper_config with seed }
    else { Render.default_config with seed }
  in
  Scenario.render_trace ~config ()

(* Replay one trace through a fresh manager, returning footprint and ops. *)
let measure trace (make : Scenario.maker) =
  let a = make () in
  Replay.run trace a;
  (Allocator.max_footprint a, (Allocator.stats a).Dmm_core.Metrics.ops)

(* Probed variant: both numbers are rebuilt from the observability event
   stream — footprint from accumulated sbrk/trim deltas, ops from fit-scan
   steps — instead of the manager's inline accounting. Matching [measure]
   exactly is the end-to-end check that the stream is complete. *)
let measure_probed trace (make : Scenario.maker) =
  let probe = Probe.create () in
  let ms = Dmm_core.Metrics.create () in
  Probe.attach probe (Dmm_core.Metrics.on_event ms);
  let ss = Series_sink.create () in
  Series_sink.attach probe ss;
  let a = make ~probe () in
  Replay.run ~probe trace a;
  (Series_sink.peak ss, Dmm_core.Metrics.ops ms)

let timed f =
  let start = Dmm_obs.Clock.now_s () in
  let r = f () in
  (r, Dmm_obs.Clock.now_s () -. start)

(* The generic column runner: record per-seed traces, design the custom
   manager from the first seed's profile (train once, evaluate on all),
   replay every manager on every seed and average. The manager x seed
   grid is embarrassingly parallel — every cell builds its own manager —
   so it fans out through the engine pool; results come back
   input-ordered, keeping the averages identical to a sequential run. *)
let run_column ?(probe = false) ~workload ~trace_of_seed ~custom ~seeds () =
  if seeds <= 0 then invalid_arg "Experiments: seeds must be positive";
  let traces = Array.init seeds (fun i -> trace_of_seed (42 + i)) in
  let custom_make = custom traces.(0) in
  let managers =
    Array.of_list (Scenario.baselines () @ [ ("custom DM manager", custom_make) ])
  in
  let cells = Array.init (Array.length managers * seeds) (fun i -> i) in
  let one_cell = if probe then measure_probed else measure in
  let measured =
    Pool.map cells (fun i ->
        let _, make = managers.(i / seeds) in
        let (fp, ops), seconds =
          timed (fun () -> one_cell traces.(i mod seeds) make)
        in
        (fp, ops, seconds))
  in
  let rows =
    List.init (Array.length managers) (fun mi ->
        let name, _ = managers.(mi) in
        let results = List.init seeds (fun ti -> measured.((mi * seeds) + ti)) in
        let fp_of (fp, _, _) = fp in
        let ops_of (_, ops, _) = ops in
        let mean f = List.fold_left (fun acc r -> acc + f r) 0 results / seeds in
        let fps = List.map fp_of results in
        let spread_pct =
          let mx = List.fold_left max 0 fps and mn = List.fold_left min max_int fps in
          let m = mean fp_of in
          if m = 0 then 0.0 else 100.0 *. float_of_int (mx - mn) /. float_of_int m
        in
        {
          manager = name;
          footprint = mean fp_of;
          spread_pct;
          paper_bytes = paper_reference workload name;
          ops = mean ops_of;
          replay_seconds =
            List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 results
            /. float_of_int seeds;
        })
  in
  let peak_live =
    Array.fold_left
      (fun acc t ->
        let p = Profile.total (Profile_builder.of_trace t) in
        acc + p.Profile.peak_live_bytes)
      0 traces
    / seeds
  in
  let events = Array.fold_left (fun acc t -> acc + Trace.length t) 0 traces / seeds in
  { workload; events; peak_live; rows }

let drr_table ?probe ?(seeds = 3) () =
  run_column ?probe ~workload:drr_name ~trace_of_seed:drr_trace_seed
    ~custom:(fun _train -> Scenario.custom_manager (Scenario.drr_paper_design ()))
    ~seeds ()

let reconstruct_table ?probe ?(seeds = 3) () =
  run_column ?probe ~workload:reconstruct_name ~trace_of_seed:reconstruct_trace_seed
    ~custom:(fun train ->
      let design = Scenario.design_for train in
      Scenario.custom_manager design)
    ~seeds ()

let render_table ?probe ?(seeds = 3) () =
  run_column ?probe ~workload:render_name ~trace_of_seed:render_trace_seed
    ~custom:(fun _train -> Scenario.custom_global (Scenario.render_paper_design ()))
    ~seeds ()

let table1 ?probe ?seeds () =
  [
    drr_table ?probe ?seeds ();
    reconstruct_table ?probe ?seeds ();
    render_table ?probe ?seeds ();
  ]

let figure5 ?(every = 2000) () =
  let trace = drr_trace_seed 42 in
  let series (make : Scenario.maker) = Footprint_series.sample ~every trace (make ()) in
  [
    ("Lea", series Scenario.lea);
    ("custom DM manager 1", series (Scenario.custom_manager (Scenario.drr_paper_design ())));
    ("Fixed-pool", series Scenario.fixed_pool);
    ("Buddy-bitmap", series Scenario.buddy_bitmap);
  ]

let breakdown_at_peak trace (make : Scenario.maker) =
  (* Pass 1: find the first event where the footprint reaches its maximum. *)
  let best = ref (-1) and best_at = ref 0 in
  Replay.run
    ~on_event:(fun i a ->
      let fp = Allocator.current_footprint a in
      if fp > !best then begin
        best := fp;
        best_at := i
      end)
    trace (make ());
  (* Pass 2: replay up to that event and decompose there. *)
  let a = make () in
  let result = ref None in
  (try
     Replay.run
       ~on_event:(fun i a ->
         if i = !best_at then begin
           result := Some (Allocator.breakdown a);
           raise Exit
         end)
       trace a
   with Exit -> ());
  match !result with Some b -> b | None -> Allocator.breakdown a

let breakdown_table () =
  let column name trace custom =
    let managers = Scenario.baselines () @ [ ("custom DM manager", custom) ] in
    (name, List.map (fun (m, make) -> (m, breakdown_at_peak trace make)) managers)
  in
  let drr = drr_trace_seed 42 in
  let recon = reconstruct_trace_seed 42 in
  let render = render_trace_seed 42 in
  [
    column drr_name drr (Scenario.custom_manager (Scenario.drr_paper_design ()));
    column reconstruct_name recon
      (Scenario.custom_manager (Scenario.design_for recon));
    column render_name render (Scenario.custom_global (Scenario.render_paper_design ()));
  ]

let energy_table ?(model = Dmm_core.Energy.default_model) () =
  let column name trace custom =
    let managers = Scenario.baselines () @ [ ("custom DM manager", custom) ] in
    ( name,
      List.map
        (fun (m, (make : Scenario.maker)) ->
          let a = make () in
          let points = Footprint_series.sample ~every:1000 trace a in
          let ops = (Allocator.stats a).Dmm_core.Metrics.ops in
          let byte_events = Footprint_series.byte_events points in
          (m, Dmm_core.Energy.estimate model ~ops ~byte_events))
        managers )
  in
  let drr = drr_trace_seed 42 in
  let render = render_trace_seed 42 in
  [
    column drr_name drr (Scenario.custom_manager (Scenario.drr_paper_design ()));
    column render_name render (Scenario.custom_global (Scenario.render_paper_design ()));
  ]

let order_ablation () =
  let trace = drr_trace_seed 42 in
  let profile = Profile.total (Profile_builder.of_trace trace) in
  let design_with order =
    match Explorer.heuristic_vector ~order profile with
    | Error msg -> invalid_arg ("Experiments.order_ablation: " ^ msg)
    | Ok vector -> { Explorer.vector; params = Explorer.heuristic_params profile vector }
  in
  let fp order =
    fst (measure trace (Scenario.custom_manager (design_with order)))
  in
  [
    ("paper order (A2->A5->E2->D2->...)", fp Dmm_core.Order.paper_order);
    ("figure-4 wrong order (A3 first)", fp Dmm_core.Order.figure4_wrong_order);
  ]

type static_report = {
  reserved_bytes : int;
  custom_footprint : int;
  static_overhead_pct : float;
  overflows_on_other_inputs : (int * int) list;
}

let class_capacities trace =
  let class_of payload = max 16 (Dmm_util.Size.pow2_ceil payload) in
  let live = Hashtbl.create 256 in
  let counts = Hashtbl.create 16 in
  let peaks = Hashtbl.create 16 in
  let bump tbl key delta =
    let v = delta + Option.value ~default:0 (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key v;
    v
  in
  Trace.iter
    (function
      | Dmm_trace.Event.Alloc { id; size } ->
        let cls = class_of size in
        Hashtbl.replace live id cls;
        let now = bump counts cls 1 in
        if now > Option.value ~default:0 (Hashtbl.find_opt peaks cls) then
          Hashtbl.replace peaks cls now
      | Dmm_trace.Event.Free { id } -> (
        match Hashtbl.find_opt live id with
        | Some cls ->
          Hashtbl.remove live id;
          ignore (bump counts cls (-1))
        | None -> ())
      | Dmm_trace.Event.Phase _ -> ())
    trace;
  Hashtbl.fold (fun cls peak acc -> (cls, peak) :: acc) peaks [] |> List.sort compare

let static_comparison () =
  let train = drr_trace_seed 42 in
  let capacities = class_capacities train in
  let static_on trace =
    let sp =
      Dmm_allocators.Static_pool.create (Dmm_vmem.Address_space.create ()) capacities
    in
    Replay.run trace (Dmm_allocators.Static_pool.allocator sp);
    sp
  in
  let trained = static_on train in
  let reserved = Dmm_allocators.Static_pool.reserved_bytes trained in
  let custom_fp =
    fst (measure train (Scenario.custom_manager (Scenario.drr_paper_design ())))
  in
  let overflows =
    List.map
      (fun seed ->
        (seed, Dmm_allocators.Static_pool.overflow_allocs (static_on (drr_trace_seed seed))))
      [ 43; 44; 45 ]
  in
  {
    reserved_bytes = reserved;
    custom_footprint = custom_fp;
    static_overhead_pct =
      100.0 *. ((float_of_int reserved /. float_of_int (max 1 custom_fp)) -. 1.0);
    overflows_on_other_inputs = overflows;
  }

let multi_app () =
  let drr = drr_trace_seed 42 in
  let recon = reconstruct_trace_seed 42 in
  let mix = Trace.interleave ~seed:7 [ drr; recon ] in
  let drr_only_design = Scenario.design_for drr in
  let mix_design = Scenario.design_for mix in
  let rows =
    Array.of_list
      (Scenario.baselines ()
      @ [
          ("custom (designed for DRR alone)", Scenario.custom_manager drr_only_design);
          ("custom (designed on the mix)", Scenario.custom_manager mix_design);
        ])
  in
  Array.to_list (Pool.map rows (fun (name, make) -> (name, fst (measure mix make))))

let search_comparison ?(samples = 60) () =
  (* Always at light scale: this validates the search strategy, and random
     designs can be pathologically slow on paper-scale traces. *)
  let saved = !paper_scale in
  paper_scale := false;
  Fun.protect ~finally:(fun () -> paper_scale := saved) @@ fun () ->
  let trace = drr_trace_seed 42 in
  let profile = Profile.total (Profile_builder.of_trace trace) in
  (* [sims] counts designs scored: each is one exact replay. *)
  let sims = ref 0 in
  let counted_score_all sim designs =
    sims := !sims + Array.length designs;
    Array.map (fun (o : Sim.outcome) -> o.Sim.footprint) (Sim.outcomes sim designs)
  in
  let methodology =
    match
      Explorer.explore_batch ~profile ~score_all:(counted_score_all (Sim.create trace)) ()
    with
    | Ok (_, fp) -> ("ordered methodology (Sec. 4.2)", !sims, fp)
    | Error msg -> invalid_arg ("Experiments.search_comparison: " ^ msg)
  in
  sims := 0;
  let rng = Dmm_util.Prng.create 2024 in
  let _, random_fp =
    Explorer.random_search_batch ~rng ~samples ~profile
      ~score_all:(counted_score_all (Sim.create trace))
  in
  let random = (Printf.sprintf "best of %d random designs" samples, !sims, random_fp) in
  let heuristic_only =
    match Explorer.heuristic_design profile with
    | Ok d -> ("heuristic walk alone (no refinement)", 1, fst (measure trace (Scenario.custom_manager d)))
    | Error msg -> invalid_arg msg
  in
  [ heuristic_only; methodology; random ]

let pp_table ppf t =
  let custom_fp =
    List.fold_left
      (fun acc r -> if r.manager = "custom DM manager" then r.footprint else acc)
      0 t.rows
  in
  Format.fprintf ppf "@[<v>%s  (events=%d, peak live payload=%d B)@," t.workload
    t.events t.peak_live;
  Format.fprintf ppf "  %-22s %12s %8s %10s %12s %12s@," "manager" "bytes" "spread"
    "x live" "vs custom" "paper bytes";
  List.iter
    (fun r ->
      let vs_custom =
        if r.manager = "custom DM manager" || custom_fp = 0 then "-"
        else Format.asprintf "%+.1f%%" (100.0 *. ((float_of_int r.footprint /. float_of_int custom_fp) -. 1.0))
      in
      let paper = match r.paper_bytes with None -> "-" | Some b -> string_of_int b in
      Format.fprintf ppf "  %-22s %12d %7.1f%% %10.2f %12s %12s@," r.manager r.footprint
        r.spread_pct
        (float_of_int r.footprint /. float_of_int (max 1 t.peak_live))
        vs_custom paper)
    t.rows;
  Format.fprintf ppf "@]"
