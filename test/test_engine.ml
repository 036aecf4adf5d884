(* The parallel simulation engine: Pool.map must be indistinguishable from
   Array.map for any worker count, Sim memoisation must return the scores a
   fresh replay would, incumbent-bounded scoring must pick the winner
   exhaustive scoring picks, and the experiment drivers must produce
   identical results under DMM_JOBS=1 and DMM_JOBS=4. *)

module Pool = Dmm_engine.Pool
module Sim = Dmm_engine.Sim
module Explorer = Dmm_core.Explorer
module Scenario = Dmm_workloads.Scenario
module Experiments = Dmm_workloads.Experiments

let () = Experiments.paper_scale := false

let check_map_empty () =
  Pool.with_jobs 4 (fun () ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map [||] (fun x -> x)))

let check_map_matches_array_map () =
  List.iter
    (fun jobs ->
      Pool.with_jobs jobs (fun () ->
          let input = Array.init 57 (fun i -> i - 7) in
          let f x = (x * x) - (3 * x) in
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d" jobs)
            (Array.map f input) (Pool.map input f)))
    [ 1; 2; 3; 4; 8 ]

let check_map_exception_propagates () =
  Pool.with_jobs 3 (fun () ->
      Alcotest.check_raises "lowest-index failure wins" (Failure "boom:2") (fun () ->
          ignore
            (Pool.map
               (Array.init 9 (fun i -> i))
               (fun i -> if i >= 2 then failwith (Printf.sprintf "boom:%d" i) else i))))

let check_with_jobs_restores () =
  Pool.set_jobs 1;
  Pool.with_jobs 4 (fun () -> Alcotest.(check int) "inside" 4 (Pool.jobs ()));
  Alcotest.(check int) "restored" 1 (Pool.jobs ());
  (try Pool.with_jobs 2 (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "restored after raise" 1 (Pool.jobs ());
  Pool.clear_jobs ()

let check_set_jobs_rejects_nonpositive () =
  Alcotest.check_raises "zero workers"
    (Invalid_argument "Pool.set_jobs: worker count must be positive") (fun () ->
      Pool.set_jobs 0)

let qcheck_map =
  QCheck.Test.make ~name:"Pool.map equals Array.map (order preserved)" ~count:60
    QCheck.(pair (array small_int) (int_range 1 6))
    (fun (input, jobs) ->
      let f x = (7 * x) + 11 in
      Pool.with_jobs jobs (fun () -> Pool.map input f = Array.map f input))

(* --- Sim memoisation ---------------------------------------------------- *)

let drr_trace () = Scenario.drr_trace ()

let base_design trace =
  let profile =
    Dmm_core.Profile.total (Dmm_trace.Profile_builder.of_trace trace)
  in
  match Explorer.heuristic_design profile with
  | Ok d -> d
  | Error msg -> Alcotest.fail msg

let outcome sim d = (Sim.outcomes sim [| d |]).(0)

let check_sim_replays () =
  let trace = drr_trace () in
  let sim = Sim.create trace in
  let d = base_design trace in
  let o1 = outcome sim d in
  let o2 = outcome sim d in
  Alcotest.(check bool) "same outcome" true (o1 = o2);
  (* A fresh simulator must agree. *)
  let fresh = outcome (Sim.create trace) d in
  Alcotest.(check bool) "equals a fresh simulator's replay" true (o1 = fresh);
  (* And both must equal a plain sequential replay outside the engine. *)
  let fp = Scenario.max_footprint trace (Scenario.custom_manager d) in
  Alcotest.(check int) "footprint equals plain replay" fp o1.Sim.footprint

let check_sim_batch_fans_out () =
  let trace = drr_trace () in
  let sim = Sim.create trace in
  let d = base_design trace in
  let variant =
    {
      d with
      Explorer.params = { d.Explorer.params with Dmm_core.Manager.chunk_request = 8192 };
    }
  in
  let batch = [| d; variant; d; variant; d |] in
  let out = Pool.with_jobs 4 (fun () -> Sim.outcomes sim batch) in
  Alcotest.(check bool) "duplicates share results" true
    (out.(0) = out.(2) && out.(2) = out.(4) && out.(1) = out.(3));
  let seq = Sim.outcomes (Sim.create trace) batch in
  Alcotest.(check bool) "batch equals fresh batch" true (out = seq)

(* --- incumbent-bounded scoring ------------------------------------------ *)

let drr_prefix =
  lazy
    (let trace = drr_trace () in
     Dmm_trace.Trace.of_list (List.filteri (fun i _ -> i < 2500) (Dmm_trace.Trace.to_list trace)))

(* Lowest score, lowest index on ties: [Explorer.refine_batch]'s rule. *)
let argmin scores =
  let best = ref 0 in
  Array.iteri (fun i s -> if s < scores.(!best) then best := i) scores;
  (!best, scores.(!best))

let qcheck_bounded_scoring =
  QCheck.Test.make ~name:"bounded score_all picks what exhaustive outcomes pick" ~count:20
    QCheck.(triple small_nat (int_range 1 5) (oneofl [ 0.0; 0.5 ]))
    (fun (seed, n, alpha) ->
      let trace = Lazy.force drr_prefix in
      let profile = Dmm_core.Profile.total (Dmm_trace.Profile_builder.of_trace trace) in
      let rng = Dmm_util.Prng.create seed in
      let batch =
        Array.of_list (base_design trace :: List.init n (fun _ -> Explorer.random_design rng profile))
      in
      let reference = Sim.outcomes (Sim.create trace) batch in
      let exact =
        Array.map
          (fun (o : Sim.outcome) ->
            Explorer.tradeoff_score ~alpha ~footprint:o.Sim.footprint ~ops:o.Sim.ops)
          reference
      in
      List.for_all
        (fun jobs ->
          let sim = Sim.create trace in
          let bounded = Pool.with_jobs jobs (fun () -> Sim.score_all ~alpha sim batch) in
          (* Exact, or a lower bound that already reaches the incumbent. *)
          let contract =
            Array.for_all2 (fun b e -> b = e || (bounded.(0) <= b && b <= e)) bounded exact
          in
          (* A later exact replay on the same simulator answers like a
             fresh one. *)
          let later = Sim.outcomes sim batch in
          argmin bounded = argmin exact && contract && later = reference)
        [ 1; 2 ])

let check_bounded_scoring_stops_losers () =
  let trace = drr_trace () in
  let profile = Dmm_core.Profile.total (Dmm_trace.Profile_builder.of_trace trace) in
  let batch = Array.of_list (Explorer.candidates profile (base_design trace)) in
  let sim = Sim.create trace in
  let bounded = Sim.score_all sim batch in
  let exact = Array.map (fun (o : Sim.outcome) -> o.Sim.footprint) (Sim.outcomes (Sim.create trace) batch) in
  Alcotest.(check (pair int int)) "same winner and score" (argmin exact) (argmin bounded);
  Alcotest.(check bool) "some losers stopped early" true (Sim.stopped sim > 0);
  Alcotest.(check int) "every unique candidate replayed once" (Array.length batch) (Sim.replays sim)

(* The multi-phase path against a coordinate descent that replays every
   candidate of every round to the end. *)
let exhaustive_global_design trace =
  let profile = Dmm_trace.Profile_builder.of_trace trace in
  let heuristic s =
    match Explorer.heuristic_design s with Ok d -> d | Error msg -> Alcotest.fail msg
  in
  let default = heuristic (Dmm_core.Profile.total profile) in
  let phases = Dmm_core.Profile.phases profile in
  let refine overrides (s : Dmm_core.Profile.phase_summary) =
    let with_design d =
      {
        Scenario.default;
        overrides = List.map (fun (p, x) -> (p, if p = s.phase then d else x)) overrides;
      }
    in
    let best, _ =
      Explorer.refine_batch
        ~score_all:
          (Array.map (fun d ->
               Scenario.max_footprint trace (Scenario.custom_global (with_design d))))
        (Explorer.candidates s (List.assoc s.phase overrides))
    in
    List.map (fun (p, x) -> (p, if p = s.phase then best else x)) overrides
  in
  let initial = List.map (fun (s : Dmm_core.Profile.phase_summary) -> (s.phase, heuristic s)) phases in
  { Scenario.default; overrides = List.fold_left refine initial phases }

let spec_keys (spec : Scenario.global_spec) =
  Explorer.design_key spec.default
  :: List.map (fun (p, d) -> Printf.sprintf "%d:%s" p (Explorer.design_key d)) spec.overrides

let check_global_design_matches_exhaustive () =
  List.iter
    (fun seed ->
      let trace = Experiments.render_trace_seed seed in
      let bounded = Pool.with_jobs 2 (fun () -> Scenario.global_design_for trace) in
      Alcotest.(check (list string))
        (Printf.sprintf "render seed %d" seed)
        (spec_keys (exhaustive_global_design trace))
        (spec_keys bounded))
    [ 1; 2; 3 ]

(* --- sequential/parallel equivalence of the drivers --------------------- *)

let check_design_for_jobs_invariant () =
  let trace = drr_trace () in
  let d1 = Pool.with_jobs 1 (fun () -> Scenario.design_for trace) in
  let d4 = Pool.with_jobs 4 (fun () -> Scenario.design_for trace) in
  Alcotest.(check string) "explore picks the same design"
    (Explorer.design_key d1) (Explorer.design_key d4)

let check_table1_jobs_invariant () =
  (* [replay_seconds] is wall-clock, so scrub it before comparing. *)
  let scrub (t : Experiments.table) =
    {
      t with
      Experiments.rows =
        List.map (fun r -> { r with Experiments.replay_seconds = 0. }) t.rows;
    }
  in
  let t1 = Pool.with_jobs 1 (fun () -> Experiments.table1 ~seeds:2 ()) in
  let t4 = Pool.with_jobs 4 (fun () -> Experiments.table1 ~seeds:2 ()) in
  Alcotest.(check bool) "table1 identical under 1 and 4 workers" true
    (List.map scrub t1 = List.map scrub t4)

let check_search_comparison_jobs_invariant () =
  let s1 = Pool.with_jobs 1 (fun () -> Experiments.search_comparison ~samples:6 ()) in
  let s4 = Pool.with_jobs 4 (fun () -> Experiments.search_comparison ~samples:6 ()) in
  Alcotest.(check bool) "search comparison identical under 1 and 4 workers" true
    (s1 = s4)

let tests =
  ( "engine",
    [
      Alcotest.test_case "map of empty input" `Quick check_map_empty;
      Alcotest.test_case "map matches Array.map for any worker count" `Quick
        check_map_matches_array_map;
      Alcotest.test_case "map re-raises the lowest-index exception" `Quick
        check_map_exception_propagates;
      Alcotest.test_case "with_jobs scopes the override" `Quick check_with_jobs_restores;
      Alcotest.test_case "set_jobs rejects non-positive counts" `Quick
        check_set_jobs_rejects_nonpositive;
      Alcotest.test_case "sim replays equal plain replays" `Quick check_sim_replays;
      Alcotest.test_case "sim batch fans out in order" `Quick check_sim_batch_fans_out;
      Alcotest.test_case "bounded scoring stops losers, keeps the winner" `Quick
        check_bounded_scoring_stops_losers;
      Alcotest.test_case "global_design_for matches an exhaustive descent" `Slow
        check_global_design_matches_exhaustive;
      Alcotest.test_case "design_for invariant under worker count" `Slow
        check_design_for_jobs_invariant;
      Alcotest.test_case "table1 invariant under worker count" `Slow
        check_table1_jobs_invariant;
      Alcotest.test_case "search comparison invariant under worker count" `Slow
        check_search_comparison_jobs_invariant;
    ]
    @ List.map QCheck_alcotest.to_alcotest [ qcheck_map; qcheck_bounded_scoring ] )
