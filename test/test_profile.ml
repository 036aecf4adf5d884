open Dmm_core

let check_counts () =
  let p = Profile.create () in
  Profile.observe_alloc p ~id:1 ~size:100;
  Profile.observe_alloc p ~id:2 ~size:200;
  Profile.observe_free p ~id:1;
  let t = Profile.total p in
  Alcotest.(check int) "allocs" 2 t.Profile.allocs;
  Alcotest.(check int) "frees" 1 t.Profile.frees;
  Alcotest.(check int) "peak live" 300 t.Profile.peak_live_bytes;
  Alcotest.(check int) "peak blocks" 2 t.Profile.peak_live_blocks;
  Alcotest.(check int) "leaked" 1 (Profile.leaked p)

let check_errors () =
  let p = Profile.create () in
  Profile.observe_alloc p ~id:1 ~size:10;
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Profile.observe_alloc: id already live") (fun () ->
      Profile.observe_alloc p ~id:1 ~size:10);
  Alcotest.check_raises "free of unknown"
    (Invalid_argument "Profile.observe_free: id not live") (fun () ->
      Profile.observe_free p ~id:99);
  Alcotest.check_raises "bad size"
    (Invalid_argument "Profile.observe_alloc: non-positive size") (fun () ->
      Profile.observe_alloc p ~id:2 ~size:0)

let check_stack_likeness_pure_stack () =
  let p = Profile.create () in
  for i = 1 to 50 do
    Profile.observe_alloc p ~id:i ~size:8
  done;
  for i = 50 downto 1 do
    Profile.observe_free p ~id:i
  done;
  Alcotest.(check bool) "pure LIFO" true
    (Profile.stack_likeness (Profile.total p) = 1.0)

let check_stack_likeness_fifo () =
  let p = Profile.create () in
  for i = 1 to 50 do
    Profile.observe_alloc p ~id:i ~size:8
  done;
  for i = 1 to 50 do
    Profile.observe_free p ~id:i
  done;
  (* Only the very last free touches the top of the stack. *)
  Alcotest.(check bool) "FIFO is not stack-like" true
    (Profile.stack_likeness (Profile.total p) < 0.1)

(* A queue of 8 live blocks over 16 recycled ids, 200,000 allocations
   long: every free releases the oldest block, so no free is LIFO and
   every stack entry below the top goes stale. The profile must stay the
   size of the live set, not of the allocations. *)
let check_fifo_stack_bounded () =
  let p = Profile.create () in
  let window = 8 and ids = 16 and n = 200_000 in
  for i = 0 to n - 1 do
    if i >= window then Profile.observe_free p ~id:((i - window) mod ids);
    Profile.observe_alloc p ~id:(i mod ids) ~size:(8 + (i mod 5))
  done;
  let t = Profile.total p in
  Alcotest.(check int) "allocs" n t.Profile.allocs;
  Alcotest.(check int) "no LIFO free" 0 t.Profile.lifo_frees;
  Alcotest.(check int) "peak blocks" window t.Profile.peak_live_blocks;
  let words = Obj.reachable_words (Obj.repr p) in
  Alcotest.(check bool) (Printf.sprintf "%d words, under 4096" words) true (words < 4096)

let check_phases_separate () =
  let p = Profile.create () in
  Profile.observe_alloc p ~id:1 ~size:64;
  Profile.observe_phase p 1;
  Profile.observe_alloc p ~id:2 ~size:128;
  Profile.observe_alloc p ~id:3 ~size:128;
  Profile.observe_free p ~id:3;
  (match Profile.phases p with
  | [ p0; p1 ] ->
    Alcotest.(check int) "phase ids" 0 p0.Profile.phase;
    Alcotest.(check int) "phase 1 id" 1 p1.Profile.phase;
    Alcotest.(check int) "phase 0 allocs" 1 p0.Profile.allocs;
    Alcotest.(check int) "phase 1 allocs" 2 p1.Profile.allocs;
    Alcotest.(check int) "phase 1 frees" 1 p1.Profile.frees
  | other -> Alcotest.fail (Printf.sprintf "expected 2 phases, got %d" (List.length other)));
  Alcotest.(check (list int)) "phase ids" [ 0; 1 ] (Profile.phase_ids p)

let check_peak_live_crosses_phases () =
  let p = Profile.create () in
  Profile.observe_alloc p ~id:1 ~size:1000;
  Profile.observe_phase p 1;
  Profile.observe_alloc p ~id:2 ~size:1;
  (* Phase 1's peak includes the memory still live from phase 0. *)
  let p1 = List.nth (Profile.phases p) 1 in
  Alcotest.(check int) "peak carries over" 1001 p1.Profile.peak_live_bytes

let check_dominant_sizes () =
  let p = Profile.create () in
  List.iteri
    (fun i size -> Profile.observe_alloc p ~id:i ~size)
    [ 64; 64; 64; 128; 128; 256 ];
  let t = Profile.total p in
  Alcotest.(check (list (pair int int))) "dominant" [ (64, 3); (128, 2) ]
    (Profile.dominant_sizes t 2);
  Alcotest.(check int) "distinct" 3 (Profile.distinct_sizes t)

let check_size_variability () =
  let uniform = Profile.create () in
  for i = 1 to 20 do
    Profile.observe_alloc uniform ~id:i ~size:100
  done;
  Alcotest.(check bool) "constant sizes" true
    (Profile.size_variability (Profile.total uniform) = 0.0);
  let varied = Profile.create () in
  List.iteri
    (fun i size -> Profile.observe_alloc varied ~id:i ~size)
    [ 10; 1000; 10; 2000; 40; 1500 ];
  Alcotest.(check bool) "varied sizes" true
    (Profile.size_variability (Profile.total varied) > 0.5)

let check_lifetimes () =
  let p = Profile.create () in
  Profile.observe_alloc p ~id:1 ~size:10;
  Profile.observe_alloc p ~id:2 ~size:10;
  Profile.observe_free p ~id:1;
  (* id 1 lived from event 1 to event 3: lifetime 2 events. *)
  let t = Profile.total p in
  Alcotest.(check bool) "lifetime recorded" true
    (Dmm_util.Stats.count t.Profile.lifetime_stats = 1
    && Dmm_util.Stats.mean t.Profile.lifetime_stats = 2.0)

let qcheck =
  [
    QCheck.Test.make ~name:"peak live >= final live" ~count:200
      QCheck.(list_of_size Gen.(1 -- 80) (pair bool (int_range 1 100)))
      (fun ops ->
        let p = Profile.create () in
        let live = ref [] in
        let next = ref 0 in
        let live_bytes = ref 0 in
        List.iter
          (fun (is_alloc, size) ->
            if is_alloc || !live = [] then begin
              incr next;
              Profile.observe_alloc p ~id:!next ~size;
              live := (!next, size) :: !live;
              live_bytes := !live_bytes + size
            end
            else
              match !live with
              | (id, size) :: rest ->
                Profile.observe_free p ~id;
                live := rest;
                live_bytes := !live_bytes - size
              | [] -> ())
          ops;
        (Profile.total p).Profile.peak_live_bytes >= !live_bytes);
  ]

let tests =
  ( "profile",
    [
      Alcotest.test_case "counts" `Quick check_counts;
      Alcotest.test_case "errors" `Quick check_errors;
      Alcotest.test_case "pure stack likeness" `Quick check_stack_likeness_pure_stack;
      Alcotest.test_case "FIFO not stack-like" `Quick check_stack_likeness_fifo;
      Alcotest.test_case "long FIFO keeps a bounded stack" `Quick check_fifo_stack_bounded;
      Alcotest.test_case "phases separate" `Quick check_phases_separate;
      Alcotest.test_case "peak live crosses phases" `Quick check_peak_live_crosses_phases;
      Alcotest.test_case "dominant sizes" `Quick check_dominant_sizes;
      Alcotest.test_case "size variability" `Quick check_size_variability;
      Alcotest.test_case "lifetimes" `Quick check_lifetimes;
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
