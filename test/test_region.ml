module Region = Dmm_allocators.Region
module Allocator = Dmm_core.Allocator
module Address_space = Dmm_vmem.Address_space

let fresh ?config () = Region.create ?config (Address_space.create ())

let check_slot_rounding () =
  let r = fresh () in
  Alcotest.(check int) "minimum slot" 16 (Region.slot_of_request r 1);
  Alcotest.(check int) "pow2 slot" 256 (Region.slot_of_request r 130);
  Alcotest.(check int) "exact pow2" 128 (Region.slot_of_request r 128)

let check_alloc_free_recycles_slots () =
  let r = fresh () in
  let a = Region.alloc r 100 in
  Region.free r a;
  let b = Region.alloc r 100 in
  Alcotest.(check int) "slot recycled" a b

let check_never_returns_memory () =
  let r = fresh () in
  let addrs = List.init 50 (fun _ -> Region.alloc r 1000) in
  let fp = Region.current_footprint r in
  List.iter (Region.free r) addrs;
  Alcotest.(check int) "footprint retained" fp (Region.current_footprint r)

let check_internal_fragmentation () =
  let r = fresh () in
  (* 100 allocations of 130 bytes consume 256-byte slots. *)
  let addrs = List.init 100 (fun _ -> Region.alloc r 130) in
  ignore addrs;
  Alcotest.(check bool) "footprint at least slots" true
    (Region.current_footprint r >= 100 * 256)

let check_explicit_regions () =
  let t = fresh () in
  let r = Region.make_region t ~slot_size:64 in
  let a = Region.region_alloc t r in
  let b = Region.region_alloc t r in
  Alcotest.(check bool) "distinct slots" true (a <> b);
  Region.region_free t r a;
  let c = Region.region_alloc t r in
  Alcotest.(check int) "slot reused" a c;
  (try
     Region.region_free t r 424242;
     Alcotest.fail "foreign address accepted"
   with Allocator.Invalid_free _ -> ());
  Region.destroy_region t r;
  (* Chunks go to the cache; a new region of the same slot size reuses them
     without growing the heap. *)
  let fp = Region.current_footprint t in
  let r2 = Region.make_region t ~slot_size:64 in
  let _ = Region.region_alloc t r2 in
  Alcotest.(check int) "cache reused" fp (Region.current_footprint t)

(* More explicit regions than the manager's initial region array holds
   (16), next to size-class regions: every slot is freed through the
   address-to-region map, the breakdown finds each live slot's region,
   and a region that [destroy_region] emptied serves slots again. *)
let check_many_regions () =
  let t = fresh () in
  let regions = Array.init 40 (fun i -> Region.make_region t ~slot_size:(16 lsl (i mod 5))) in
  let class_slot = Region.alloc t 100 in
  let slots = Array.map (fun r -> [ Region.region_alloc t r; Region.region_alloc t r ]) regions in
  let live () = (Region.breakdown t).Dmm_core.Metrics.live_payload in
  let slot_bytes i = Region.slot_of_request t (16 lsl (i mod 5)) in
  let want = ref 100 in
  Array.iteri (fun i _ -> want := !want + (2 * slot_bytes i)) regions;
  Alcotest.(check int) "live payload" !want (live ());
  (* The generic free finds each slot's region by its id. *)
  Array.iteri
    (fun i l ->
      Region.free t (List.hd l);
      want := !want - slot_bytes i)
    slots;
  Alcotest.(check int) "after freeing one slot each" !want (live ());
  Array.iteri
    (fun i r ->
      if i mod 2 = 0 then begin
        Region.destroy_region t r;
        want := !want - slot_bytes i
      end)
    regions;
  Alcotest.(check int) "after destroying half" !want (live ());
  Array.iteri
    (fun i r ->
      if i mod 2 = 0 then begin
        let a = Region.region_alloc t r in
        Region.free t a
      end)
    regions;
  Region.free t class_slot;
  Alcotest.(check int) "the odd regions' second slots" (!want - 100) (live ())

let check_destroy_invalidates () =
  let t = fresh () in
  let r = Region.make_region t ~slot_size:32 in
  let a = Region.region_alloc t r in
  Region.destroy_region t r;
  try
    Region.free t a;
    Alcotest.fail "destroyed slot still freeable"
  with Allocator.Invalid_free _ -> ()

let check_invalid_free () =
  let r = fresh () in
  let a = Region.alloc r 10 in
  Region.free r a;
  try
    Region.free r a;
    Alcotest.fail "double free accepted"
  with Allocator.Invalid_free _ -> ()

let check_large_slots () =
  let r = fresh () in
  let a = Region.alloc r 100_000 in
  Alcotest.(check bool) "large slot served" true (a >= 0);
  Alcotest.(check bool) "chunk covers the slot" true
    (Region.current_footprint r >= 131072)

let check_allocator_interface () =
  let r = fresh () in
  let a = Region.allocator r in
  Alcotest.(check string) "name" "regions" a.Allocator.name

let qcheck =
  [
    QCheck.Test.make ~name:"no overlap between live slots" ~count:100
      QCheck.(list_of_size Gen.(5 -- 50) (int_range 1 2000))
      (fun sizes ->
        let r = fresh () in
        let blocks = List.map (fun s -> (Region.alloc r s, s)) sizes in
        List.for_all
          (fun (a1, s1) ->
            List.for_all
              (fun (a2, s2) -> a1 = a2 || a1 + s1 <= a2 || a2 + s2 <= a1)
              blocks)
          blocks);
  ]

let tests =
  ( "region",
    [
      Alcotest.test_case "slot rounding" `Quick check_slot_rounding;
      Alcotest.test_case "slots recycled" `Quick check_alloc_free_recycles_slots;
      Alcotest.test_case "never returns memory" `Quick check_never_returns_memory;
      Alcotest.test_case "internal fragmentation" `Quick check_internal_fragmentation;
      Alcotest.test_case "explicit regions" `Quick check_explicit_regions;
      Alcotest.test_case "more regions than the initial array" `Quick check_many_regions;
      Alcotest.test_case "destroy invalidates slots" `Quick check_destroy_invalidates;
      Alcotest.test_case "invalid free" `Quick check_invalid_free;
      Alcotest.test_case "large slots" `Quick check_large_slots;
      Alcotest.test_case "allocator interface" `Quick check_allocator_interface;
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
