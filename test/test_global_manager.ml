open Dmm_core
module D = Decision
module DV = Decision_vector
module GM = Global_manager
module Address_space = Dmm_vmem.Address_space

let coalescing_design =
  {
    GM.vector = DV.drr_custom;
    params = { Manager.default_params with return_to_system = true };
  }

let pool_design =
  {
    GM.vector =
      {
        DV.drr_custom with
        a1 = D.Singly_linked_list;
        a2 = D.Many_fixed_sizes;
        a3 = D.No_tag;
        a4 = D.No_info;
        a5 = D.No_flexibility;
        b1 = D.Pool_per_size;
        b4 = D.Variable_pool_count;
        c1 = D.First_fit;
        d1 = D.One_size;
        d2 = D.Never;
        e1 = D.One_size;
        e2 = D.Never;
      };
    params = Manager.default_params;
  }

let fresh () =
  let space = Address_space.create () in
  (GM.create space ~default:coalescing_design ~overrides:[ (1, pool_design) ] (), space)

let check_phase_dispatch () =
  let gm, _ = fresh () in
  Alcotest.(check int) "initial phase" 0 (GM.current_phase gm);
  let a0 = GM.alloc gm 100 in
  GM.set_phase gm 1;
  Alcotest.(check int) "phase switched" 1 (GM.current_phase gm);
  let a1 = GM.alloc gm 100 in
  Alcotest.(check int) "two atomic managers" 2 (List.length (GM.managers gm));
  (* Frees dispatch to the owning manager even from another phase. *)
  GM.set_phase gm 0;
  GM.free gm a1;
  GM.free gm a0;
  Alcotest.(check bool) "all freed" true
    (List.for_all
       (fun (_, m) -> (Manager.metrics m).Metrics.live_blocks = 0)
       (GM.managers gm))

(* Alloc reads the current phase's manager from a field: coming back to
   a phase must find its manager again, not the last phase's. *)
let check_phase_return () =
  let gm, _ = fresh () in
  let a0 = GM.alloc gm 100 in
  GM.set_phase gm 1;
  let a1 = GM.alloc gm 100 in
  GM.set_phase gm 0;
  let b0 = GM.alloc gm 100 in
  let owner addr =
    List.filter_map (fun (p, m) -> if Manager.owns m addr then Some p else None) (GM.managers gm)
  in
  Alcotest.(check (list int)) "first phase-0 block" [ 0 ] (owner a0);
  Alcotest.(check (list int)) "phase-1 block" [ 1 ] (owner a1);
  Alcotest.(check (list int)) "second phase-0 block" [ 0 ] (owner b0);
  Alcotest.(check int) "no third manager" 2 (List.length (GM.managers gm))

let check_lazy_instantiation () =
  let gm, _ = fresh () in
  Alcotest.(check int) "no managers yet" 0 (List.length (GM.managers gm));
  GM.set_phase gm 7;
  let _ = GM.alloc gm 10 in
  (match GM.managers gm with
  | [ (7, _) ] -> ()
  | _ -> Alcotest.fail "expected exactly the phase-7 manager")

let check_override_design_used () =
  let gm, _ = fresh () in
  GM.set_phase gm 1;
  let _ = GM.alloc gm 100 in
  match GM.managers gm with
  | [ (1, m) ] ->
    Alcotest.(check bool) "override vector used" true
      (DV.equal (Manager.vector m) pool_design.GM.vector)
  | _ -> Alcotest.fail "expected the phase-1 manager"

let check_invalid_free () =
  let gm, _ = fresh () in
  let addr = GM.alloc gm 64 in
  GM.free gm addr;
  try
    GM.free gm addr;
    Alcotest.fail "double free accepted"
  with Allocator.Invalid_free _ -> ()

let check_footprint_is_space_extent () =
  let gm, space = fresh () in
  let a = GM.allocator gm in
  let addrs = List.init 30 (fun i -> Allocator.alloc a (100 + i)) in
  Alcotest.(check int) "current = brk" (Address_space.brk space)
    (Allocator.current_footprint a);
  List.iter (Allocator.free a) addrs;
  Alcotest.(check int) "max = high water" (Address_space.high_water space)
    (Allocator.max_footprint a)

let check_allocator_phase_hook () =
  let gm, _ = fresh () in
  let a = GM.allocator gm in
  Allocator.phase a 3;
  Alcotest.(check int) "hook sets phase" 3 (GM.current_phase gm)

let check_invalid_design_rejected () =
  let space = Address_space.create () in
  let bad =
    { GM.vector = DV.set DV.drr_custom (D.L_a3 D.No_tag); params = Manager.default_params }
  in
  try
    ignore (GM.create space ~default:bad ());
    Alcotest.fail "invalid default accepted"
  with Invalid_argument _ -> ()

let check_default_design_for_unknown_phases () =
  let gm, _ = fresh () in
  GM.set_phase gm 99;
  let _ = GM.alloc gm 64 in
  match GM.managers gm with
  | [ (99, m) ] ->
    Alcotest.(check bool) "default vector used" true
      (DV.equal (Manager.vector m) coalescing_design.GM.vector)
  | _ -> Alcotest.fail "expected the phase-99 manager"

let check_combined_stats_sum () =
  let gm, _ = fresh () in
  let a = GM.allocator gm in
  Allocator.phase a 0;
  let x = Allocator.alloc a 100 in
  Allocator.phase a 1;
  let _y = Allocator.alloc a 200 in
  Allocator.free a x;
  let combined = Allocator.stats a in
  let per_manager =
    List.fold_left
      (fun (al, fr, live) (_, m) ->
        let s = Manager.metrics m in
        (al + s.Metrics.allocs, fr + s.Metrics.frees, live + s.Metrics.live_payload))
      (0, 0, 0) (GM.managers gm)
  in
  Alcotest.(check (triple int int int)) "stats sum across atomic managers"
    (combined.Metrics.allocs, combined.Metrics.frees, combined.Metrics.live_payload)
    per_manager;
  Alcotest.(check int) "two allocs total" 2 combined.Metrics.allocs;
  Alcotest.(check int) "one live block of 200" 200 combined.Metrics.live_payload

let check_cross_phase_interleaving () =
  let gm, _ = fresh () in
  let a = GM.allocator gm in
  let rng = Dmm_util.Prng.create 9 in
  let live = ref [] in
  for _ = 1 to 300 do
    Allocator.phase a (Dmm_util.Prng.int rng 3);
    if Dmm_util.Prng.bool rng || !live = [] then
      live := Allocator.alloc a (1 + Dmm_util.Prng.int rng 500) :: !live
    else begin
      let n = Dmm_util.Prng.int rng (List.length !live) in
      let addr = List.nth !live n in
      live := List.filteri (fun i _ -> i <> n) !live;
      Allocator.free a addr
    end
  done;
  List.iter (Allocator.free a) !live;
  List.iter
    (fun (_, m) ->
      (match Manager.check_invariants m with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check int) "nothing live" 0 (Manager.metrics m).Metrics.live_blocks)
    (GM.managers gm)

let tests =
  ( "global_manager",
    [
      Alcotest.test_case "phase dispatch" `Quick check_phase_dispatch;
      Alcotest.test_case "a phase finds its manager again" `Quick check_phase_return;
      Alcotest.test_case "lazy instantiation" `Quick check_lazy_instantiation;
      Alcotest.test_case "override design used" `Quick check_override_design_used;
      Alcotest.test_case "invalid free" `Quick check_invalid_free;
      Alcotest.test_case "footprint is the space extent" `Quick check_footprint_is_space_extent;
      Alcotest.test_case "allocator phase hook" `Quick check_allocator_phase_hook;
      Alcotest.test_case "invalid design rejected" `Quick check_invalid_design_rejected;
      Alcotest.test_case "cross-phase interleaving" `Quick check_cross_phase_interleaving;
      Alcotest.test_case "default design for unknown phases" `Quick
        check_default_design_for_unknown_phases;
      Alcotest.test_case "combined stats sum" `Quick check_combined_stats_sum;
    ] )
