open Dmm_core
module D = Decision
module E = Explorer

(* Synthetic profiles. *)
let profile_of sizes =
  let p = Profile.create () in
  List.iteri (fun i size -> Profile.observe_alloc p ~id:i ~size) sizes;
  Profile.total p

let varied_profile =
  profile_of
    (List.concat_map (fun s -> [ s; s + 1; s * 3 ]) [ 40; 100; 576; 900; 1500; 33; 257 ])

let uniform_profile = profile_of (List.init 50 (fun _ -> 128))

let few_sizes_profile = profile_of (List.concat_map (fun s -> List.init 10 (fun _ -> s)) [ 64; 128; 256 ])

let check_varied_matches_drr_derivation () =
  match E.heuristic_vector varied_profile with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
    Alcotest.(check bool) "valid" true (Constraints.is_valid v);
    Alcotest.(check bool) "many varying sizes" true (v.a2 = D.Many_varying_sizes);
    Alcotest.(check bool) "split and coalesce" true (v.a5 = D.Split_and_coalesce);
    Alcotest.(check bool) "coalesce always" true (v.d2 = D.Always);
    Alcotest.(check bool) "split always" true (v.e2 = D.Always);
    Alcotest.(check bool) "single pool" true (v.b1 = D.Single_pool);
    Alcotest.(check bool) "exact fit" true (v.c1 = D.Exact_fit);
    Alcotest.(check bool) "doubly linked list" true (v.a1 = D.Doubly_linked_list);
    Alcotest.(check bool) "header" true (v.a3 = D.Header);
    Alcotest.(check bool) "size and status" true (v.a4 = D.Size_and_status)

let check_uniform_gets_rigid_manager () =
  match E.heuristic_vector uniform_profile with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
    Alcotest.(check bool) "valid" true (Constraints.is_valid v);
    Alcotest.(check bool) "one fixed size" true (v.a2 = D.One_fixed_size);
    Alcotest.(check bool) "no flexibility" true (v.a5 = D.No_flexibility);
    Alcotest.(check bool) "never coalesce" true (v.d2 = D.Never);
    Alcotest.(check bool) "tag-free" true (v.a3 = D.No_tag)

let check_few_sizes_gets_pools () =
  match E.heuristic_vector few_sizes_profile with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
    Alcotest.(check bool) "valid" true (Constraints.is_valid v);
    Alcotest.(check bool) "fixed classes" true (v.a2 = D.Many_fixed_sizes);
    Alcotest.(check bool) "pool per size" true (v.b1 = D.Pool_per_size)

let check_wrong_order_traps_flexibility () =
  match E.heuristic_vector ~order:Order.figure4_wrong_order varied_profile with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
    (* Figure 4: the greedy tag choice forecloses splitting/coalescing. *)
    Alcotest.(check bool) "A3 chosen greedily" true (v.a3 = D.No_tag);
    Alcotest.(check bool) "coalescing foreclosed" true (v.d2 = D.Never);
    Alcotest.(check bool) "splitting foreclosed" true (v.e2 = D.Never);
    Alcotest.(check bool) "still valid" true (Constraints.is_valid v)

let check_heuristic_params () =
  match E.heuristic_vector varied_profile with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
    let params = E.heuristic_params varied_profile v in
    Alcotest.(check bool) "returns memory" true params.Manager.return_to_system;
    Alcotest.(check bool) "chunk at least a page" true (params.Manager.chunk_request >= 4096);
    Alcotest.(check bool) "classes non-empty" true (params.Manager.size_classes <> [])

let check_candidates_valid_and_headed () =
  match E.heuristic_design varied_profile with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    let cands = E.candidates varied_profile base in
    Alcotest.(check bool) "base is first" true (List.hd cands == base);
    Alcotest.(check bool) "several candidates" true (List.length cands > 4);
    List.iter
      (fun (d : E.design) ->
        Alcotest.(check bool) "candidate valid" true (Constraints.is_valid d.vector))
      cands

let check_candidates_deduped () =
  match E.heuristic_design varied_profile with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    (* chunk0 = 4096 makes the parameter grid collide with [base]; the
       candidate list must still carry no duplicate design keys. *)
    let base =
      {
        base with
        E.params =
          { base.E.params with Manager.chunk_request = 4096; trim_threshold = 4096 };
      }
    in
    let keys = List.map E.design_key (E.candidates varied_profile base) in
    Alcotest.(check int) "no duplicate design keys"
      (List.length (List.sort_uniq compare keys))
      (List.length keys)

let check_heuristic_choice_empty_legal () =
  Alcotest.check_raises "empty legal set names the tree"
    (Invalid_argument
       (Printf.sprintf "Explorer.first_legal: no legal leaves for tree %s"
          (D.tree_name D.A2)))
    (fun () ->
      ignore
        (E.heuristic_choice varied_profile Decision_vector.Partial.empty D.A2 []))

let check_refine_picks_minimum () =
  let mk name = { E.vector = Decision_vector.drr_custom; params = { Manager.default_params with chunk_request = name } } in
  let designs = [ mk 1000; mk 2000; mk 3000 ] in
  let score (d : E.design) = abs (d.params.Manager.chunk_request - 2000) in
  let best, s = E.refine_batch ~score_all:(Array.map score) designs in
  Alcotest.(check int) "minimum score" 0 s;
  Alcotest.(check int) "right design" 2000 best.E.params.Manager.chunk_request

let check_refine_empty () =
  Alcotest.check_raises "no candidates" (Invalid_argument "Explorer.refine: no candidates")
    (fun () -> ignore (E.refine_batch ~score_all:(Array.map (fun _ -> 0)) []));
  let d = { E.vector = Decision_vector.drr_custom; params = Manager.default_params } in
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument "Explorer.refine_batch: score_all changed the candidate count")
    (fun () -> ignore (E.refine_batch ~score_all:(fun _ -> [| 1 |]) [ d; d ]))

let check_explore_not_worse_than_heuristic () =
  (* Score = real replay footprint over a synthetic trace. *)
  let trace = Dmm_workloads.Scenario.drr_trace () in
  let profile =
    Profile.total (Dmm_trace.Profile_builder.of_trace trace)
  in
  let score (d : E.design) =
    Dmm_workloads.Scenario.max_footprint trace (Dmm_workloads.Scenario.custom_manager d)
  in
  match E.heuristic_design profile with
  | Error msg -> Alcotest.fail msg
  | Ok base -> (
    match E.explore_batch ~profile ~score_all:(Array.map score) () with
    | Error msg -> Alcotest.fail msg
    | Ok (_, best_score) ->
      Alcotest.(check bool) "refinement can only improve" true (best_score <= score base))

let check_random_design_valid () =
  let rng = Dmm_util.Prng.create 5 in
  for _ = 1 to 50 do
    let d = E.random_design rng varied_profile in
    Alcotest.(check bool) "random design valid" true (Constraints.is_valid d.E.vector)
  done

let check_random_search () =
  let rng = Dmm_util.Prng.create 5 in
  let calls = ref 0 in
  let score (_ : E.design) =
    incr calls;
    100 - !calls (* later candidates score lower *)
  in
  let _, best =
    E.random_search_batch ~rng ~samples:7 ~profile:varied_profile ~score_all:(Array.map score)
  in
  Alcotest.(check int) "exactly samples simulations" 7 !calls;
  Alcotest.(check int) "minimum found" 93 best;
  Alcotest.check_raises "no samples"
    (Invalid_argument "Explorer.random_search: samples must be positive") (fun () ->
      ignore
        (E.random_search_batch ~rng ~samples:0 ~profile:varied_profile
           ~score_all:(Array.map score)))

let check_methodology_beats_random () =
  (* Fixed seeds: the ordered heuristic walk must not lose to a small
     random sample of the valid space on the DRR trace. *)
  let trace = Dmm_workloads.Scenario.drr_trace () in
  let profile = Profile.total (Dmm_trace.Profile_builder.of_trace trace) in
  let score d =
    Dmm_workloads.Scenario.max_footprint trace (Dmm_workloads.Scenario.custom_manager d)
  in
  match E.heuristic_design profile with
  | Error msg -> Alcotest.fail msg
  | Ok heuristic ->
    let rng = Dmm_util.Prng.create 77 in
    let _, random_best =
      E.random_search_batch ~rng ~samples:15 ~profile ~score_all:(Array.map score)
    in
    Alcotest.(check bool) "heuristic <= best of 15 random" true
      (score heuristic <= random_best)

let check_search_comparison_shape () =
  Dmm_workloads.Experiments.paper_scale := false;
  match Dmm_workloads.Experiments.search_comparison ~samples:8 () with
  | [ (_, h_sims, h_fp); (_, m_sims, m_fp); (_, r_sims, r_fp) ] ->
    Alcotest.(check int) "heuristic costs one simulation" 1 h_sims;
    Alcotest.(check bool) "methodology spends a few simulations" true (m_sims > 1);
    Alcotest.(check int) "random spends its budget" 8 r_sims;
    Alcotest.(check bool) "methodology <= heuristic alone" true (m_fp <= h_fp);
    Alcotest.(check bool) "methodology <= random" true (m_fp <= r_fp)
  | _ -> Alcotest.fail "unexpected comparison shape"

let check_pp_design () =
  match E.heuristic_design varied_profile with
  | Error msg -> Alcotest.fail msg
  | Ok d ->
    let s = Format.asprintf "%a" E.pp_design d in
    Alcotest.(check bool) "non-empty rendering" true (String.length s > 100)

let tests =
  ( "explorer",
    [
      Alcotest.test_case "varied profile reproduces the DRR derivation" `Quick
        check_varied_matches_drr_derivation;
      Alcotest.test_case "uniform profile gets a rigid manager" `Quick
        check_uniform_gets_rigid_manager;
      Alcotest.test_case "few sizes get per-size pools" `Quick check_few_sizes_gets_pools;
      Alcotest.test_case "wrong order traps flexibility (Figure 4)" `Quick
        check_wrong_order_traps_flexibility;
      Alcotest.test_case "heuristic params" `Quick check_heuristic_params;
      Alcotest.test_case "candidates valid" `Quick check_candidates_valid_and_headed;
      Alcotest.test_case "candidates carry no duplicate keys" `Quick
        check_candidates_deduped;
      Alcotest.test_case "empty legal set is diagnosable" `Quick
        check_heuristic_choice_empty_legal;
      Alcotest.test_case "refine picks the minimum" `Quick check_refine_picks_minimum;
      Alcotest.test_case "refine rejects empty" `Quick check_refine_empty;
      Alcotest.test_case "explore not worse than heuristic" `Slow
        check_explore_not_worse_than_heuristic;
      Alcotest.test_case "random designs are valid" `Quick check_random_design_valid;
      Alcotest.test_case "random search" `Quick check_random_search;
      Alcotest.test_case "methodology beats random sampling" `Slow
        check_methodology_beats_random;
      Alcotest.test_case "search comparison shape" `Slow check_search_comparison_shape;
      Alcotest.test_case "design rendering" `Quick check_pp_design;
    ] )
