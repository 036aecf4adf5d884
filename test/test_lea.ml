module Lea = Dmm_allocators.Lea
module Allocator = Dmm_core.Allocator
module Address_space = Dmm_vmem.Address_space

let fresh ?config () =
  let space = Address_space.create () in
  (Lea.create ?config space, space)

let check_basic_alloc_free () =
  let lea, _ = fresh () in
  let a = Lea.alloc lea 100 in
  let b = Lea.alloc lea 200 in
  Alcotest.(check bool) "distinct" true (a <> b);
  Lea.free lea a;
  Lea.free lea b;
  Alcotest.(check int) "all accounted in top+bins" (Lea.current_footprint lea)
    (Lea.top_size lea + Lea.binned_bytes lea)

let check_coalescing_bounds_footprint () =
  let lea, _ = fresh () in
  (* Churn mixed sizes: coalescing must keep footprint near one granule. *)
  let rng = Dmm_util.Prng.create 3 in
  for _ = 1 to 200 do
    let addrs = List.init 20 (fun _ -> Lea.alloc lea (8 + Dmm_util.Prng.int rng 2000)) in
    List.iter (Lea.free lea) addrs
  done;
  Alcotest.(check bool) "footprint bounded by two granules" true
    (Lea.max_footprint lea <= 2 * 65536)

let check_granularity () =
  let lea, space = fresh () in
  let _ = Lea.alloc lea 10 in
  Alcotest.(check int) "first request is one granule" 65536 (Address_space.brk space)

let check_trim () =
  let lea, space = fresh () in
  (* Grow the heap well past the trim threshold, then free everything. *)
  let addrs = List.init 10 (fun _ -> Lea.alloc lea 50000) in
  let peak = Address_space.brk space in
  List.iter (Lea.free lea) addrs;
  Alcotest.(check bool) "trimmed below the peak" true (Address_space.brk space < peak);
  Alcotest.(check bool) "keeps one granule" true (Lea.top_size lea <= 2 * 65536)

let check_split_remainder_reused () =
  let lea, _ = fresh () in
  (* Pin a small block after the big one so the freed big block cannot be
     absorbed into the top chunk and must be binned, then split. *)
  let big = Lea.alloc lea 10000 in
  let _pin = Lea.alloc lea 16 in
  Lea.free lea big;
  Alcotest.(check bool) "big block binned" true (Lea.binned_bytes lea >= 10000);
  let _ = Lea.alloc lea 4000 in
  Alcotest.(check bool) "splits recorded" true
    ((Lea.metrics lea).Dmm_core.Metrics.splits >= 1)

let check_neighbour_merging () =
  let lea, _ = fresh () in
  let a = Lea.alloc lea 1000 in
  let b = Lea.alloc lea 1000 in
  let c = Lea.alloc lea 1000 in
  (* Free middle, then sides: must merge into larger chunks. *)
  Lea.free lea b;
  Lea.free lea a;
  Lea.free lea c;
  Alcotest.(check bool) "coalesces recorded" true
    ((Lea.metrics lea).Dmm_core.Metrics.coalesces >= 2)

let check_invalid_free () =
  let lea, _ = fresh () in
  let addr = Lea.alloc lea 64 in
  (try
     Lea.free lea (addr + 8);
     Alcotest.fail "bogus free accepted"
   with Allocator.Invalid_free _ -> ());
  Lea.free lea addr;
  try
    Lea.free lea addr;
    Alcotest.fail "double free accepted"
  with Allocator.Invalid_free _ -> ()

let check_no_overlap () =
  let lea, _ = fresh () in
  let rng = Dmm_util.Prng.create 17 in
  let live = Hashtbl.create 64 in
  for _ = 1 to 600 do
    if Dmm_util.Prng.bool rng || Hashtbl.length live = 0 then begin
      let size = 1 + Dmm_util.Prng.int rng 3000 in
      let addr = Lea.alloc lea size in
      Hashtbl.iter
        (fun a s ->
          if addr < a + s && a < addr + size then Alcotest.fail "overlap detected")
        live;
      Hashtbl.replace live addr size
    end
    else begin
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
      let k = List.nth keys (Dmm_util.Prng.int rng (List.length keys)) in
      Hashtbl.remove live k;
      Lea.free lea k
    end
  done

let check_allocator_interface () =
  let lea, _ = fresh () in
  let a = Lea.allocator lea in
  Alcotest.(check string) "name" "lea" a.Allocator.name;
  let addr = Allocator.alloc a 128 in
  Allocator.free a addr;
  Alcotest.(check int) "frees counted" 1 (Allocator.stats a).Dmm_core.Metrics.frees

(* A boundary tag holds [size * 2 + used] in 32 bits, so no chunk may
   reach 2^30 bytes. Growth to a heap that large is refused, whether one
   request would need it or a chunk below 1 GiB that would coalesce with
   its neighbour past it, and the refusal leaves the heap usable. No
   refused request touches the arena, so the test stays small. *)
let check_heap_bound () =
  let lea, space = fresh () in
  let refused size =
    match Lea.alloc lea size with
    | _ -> false
    | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the tag" true
        (String.starts_with ~prefix:"Lea.alloc: " msg
        && String.ends_with ~suffix:"32-bit boundary tag" msg);
      true
  in
  Alcotest.(check bool) "a 1 GiB request" true (refused (1 lsl 30));
  let a = Lea.alloc lea 60_000 in
  let brk = Address_space.brk space in
  (* 60,008 + 1,073,700,008 bytes would coalesce to more than 2^30. *)
  Alcotest.(check bool) "a chunk below 1 GiB beside another" true (refused 1_073_700_000);
  Alcotest.(check int) "heap unchanged" brk (Address_space.brk space);
  Lea.free lea (Lea.alloc lea 100);
  Lea.free lea a;
  Alcotest.(check int) "all accounted in top+bins" (Lea.current_footprint lea)
    (Lea.top_size lea + Lea.binned_bytes lea)

let qcheck =
  [
    QCheck.Test.make ~name:"footprint covers live payload" ~count:100
      QCheck.(list_of_size Gen.(10 -- 60) (pair bool (int_range 1 5000)))
      (fun ops ->
        let lea, _ = fresh () in
        let live = ref [] in
        List.for_all
          (fun (is_alloc, size) ->
            (if is_alloc || !live = [] then live := (Lea.alloc lea size, size) :: !live
             else
               match !live with
               | (addr, _) :: rest ->
                 live := rest;
                 Lea.free lea addr
               | [] -> ());
            let payload = List.fold_left (fun acc (_, s) -> acc + s) 0 !live in
            Lea.current_footprint lea >= payload)
          ops);
  ]

let tests =
  ( "lea",
    [
      Alcotest.test_case "basic alloc/free" `Quick check_basic_alloc_free;
      Alcotest.test_case "coalescing bounds footprint" `Quick check_coalescing_bounds_footprint;
      Alcotest.test_case "64 KiB granularity" `Quick check_granularity;
      Alcotest.test_case "trims the top chunk" `Quick check_trim;
      Alcotest.test_case "split remainders reused" `Quick check_split_remainder_reused;
      Alcotest.test_case "neighbour merging" `Quick check_neighbour_merging;
      Alcotest.test_case "invalid free" `Quick check_invalid_free;
      Alcotest.test_case "no overlap under churn" `Quick check_no_overlap;
      Alcotest.test_case "allocator interface" `Quick check_allocator_interface;
      Alcotest.test_case "heap stays below the 32-bit tag" `Quick check_heap_bound;
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
