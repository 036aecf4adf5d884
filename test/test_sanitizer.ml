(* The heap sanitizer: every defect class it promises to catch is injected
   and caught, every shipped manager passes it clean, and tampered event
   streams are rejected as incomplete rather than misreported as heap
   bugs. *)

module Event = Dmm_obs.Event
module Probe = Dmm_obs.Probe
module Diag = Dmm_check.Diag
module Stream = Dmm_check.Stream
module Sanitizer = Dmm_check.Sanitizer
module Shape = Dmm_check.Shape
module Block = Dmm_core.Block
module Free_structure = Dmm_core.Free_structure
module Decision_vector = Dmm_core.Decision_vector
module Manager = Dmm_core.Manager
module Explorer = Dmm_core.Explorer
module Address_space = Dmm_vmem.Address_space
module Trace = Dmm_trace.Trace
module Tevent = Dmm_trace.Event
module Replay = Dmm_trace.Replay
module Scenario = Dmm_workloads.Scenario
open Dmm_core.Decision

let rules diags = List.map (fun d -> d.Diag.rule_id) diags

let has rule diags = List.mem rule (rules diags)

let check_rule what rule diags =
  Alcotest.(check bool) (what ^ " flags " ^ rule) true (has rule diags)

let check_clean what diags =
  Alcotest.(check (list string)) (what ^ " is clean") [] (rules diags)

(* One check over [entries], fed one at a time. *)
let check ?design entries =
  let st = Sanitizer.start ?design () in
  List.iter (Sanitizer.feed st) entries;
  Sanitizer.finalize st

(* Synthetic events, numbered 0, 1, 2, ... as a probe numbers them. *)
let numbered evs = List.mapi (fun clock event -> { Stream.clock; event }) evs

(* --- invariant defects, one synthetic stream per class ------------------- *)

let sbrk n brk = Event.Sbrk { bytes = n; brk }
let alloc ?(tag = 0) p g a = Event.Alloc { payload = p; gross = g; tag; addr = a }
let free_ p a = Event.Free { payload = p; addr = a }

let invariant_defects () =
  let run evs = (check (numbered evs)).Sanitizer.diags in
  check_clean "tiny stream"
    (run [ sbrk 4096 4096; alloc 100 104 4; free_ 100 4 ]);
  check_rule "overlapping payloads" "live-overlap"
    (run [ sbrk 4096 4096; alloc 100 104 4; alloc 100 104 52 ]);
  check_rule "re-returned live address" "live-overlap"
    (run [ sbrk 4096 4096; alloc 8 16 4; alloc 8 16 4 ]);
  check_rule "double free" "invalid-free"
    (run [ sbrk 4096 4096; alloc 100 104 4; free_ 100 4; free_ 100 4 ]);
  check_rule "wild free" "invalid-free" (run [ sbrk 4096 4096; free_ 8 64 ]);
  check_rule "free size lie" "free-payload-mismatch"
    (run [ sbrk 4096 4096; alloc 100 104 4; free_ 96 4 ]);
  check_rule "non-positive alloc" "alloc-nonpositive" (run [ sbrk 4096 4096; alloc 0 16 4 ]);
  check_rule "gross below payload" "gross-below-payload"
    (run [ sbrk 4096 4096; alloc 100 64 4 ]);
  check_rule "live beyond held" "footprint-below-live" (run [ alloc 100 104 4 ]);
  check_rule "split algebra" "split-algebra"
    (run [ sbrk 4096 4096; Event.Split { addr = 0; parent = 128; taken = 64; remainder = 32 } ]);
  check_rule "coalesce algebra" "coalesce-algebra"
    (run [ sbrk 4096 4096; Event.Coalesce { addr = 0; merged = 64; absorbed = 64 } ]);
  check_rule "sbrk ledger" "footprint-accounting" (run [ sbrk 4096 4096; sbrk 4096 9000 ]);
  check_rule "trim ledger" "footprint-accounting"
    (run [ sbrk 4096 4096; Event.Trim { bytes = 8192; brk = 0 } ]);
  check_rule "zero-step scan" "fit-scan-steps" (run [ Event.Fit_scan { steps = 0 } ])

(* Sizes and addresses near [max_int]: a sum of two fields that wraps
   must not hide a defect. *)
let sums_near_max_int () =
  let diags evs = (check (numbered evs)).Sanitizer.diags in
  let found evs =
    List.map
      (fun (d : Diag.t) -> (d.Diag.rule_id, Option.get d.Diag.index, d.Diag.explanation))
      (diags evs)
  in
  Alcotest.(check (list (triple string int string)))
    "ends past max_int, tags that do not fit, live payload past the bytes held"
    [
      ( "live-overlap",
        2,
        "new block [4611686018427387890,+16) overlaps live block [4611686018427387903,+16)" );
      ( "tag-overflow",
        3,
        "4 tag bytes plus the 4611686018427387901-byte payload do not fit the \
         4611686018427387903-byte gross block" );
      ( "live-overlap",
        3,
        "new block [64,+4611686018427387901) overlaps live block [4611686018427387890,+16)" );
      ( "footprint-below-live",
        3,
        "live payload (4611686018427387933 bytes) exceeds memory obtained from the system \
         (4096 bytes)" );
    ]
    (found
       [
         sbrk 4096 4096;
         alloc ~tag:8 16 24 max_int;
         alloc ~tag:8 16 24 (max_int - 13);
         alloc ~tag:4 (max_int - 2) max_int 64;
       ]);
  (* Ledger and split sums that wrap to the recorded value. *)
  check_rule "sbrk moving the break past max_int" "footprint-accounting"
    (diags [ sbrk max_int max_int; sbrk max_int (-2) ]);
  Alcotest.(check (list (triple string int string)))
    "trim moving the break past max_int"
    [
      ("footprint-accounting", 1, "trim of -2 bytes");
      ( "footprint-accounting",
        1,
        "trim of -2 bytes moved the break from 4611686018427387903 to -4611686018427387903" );
    ]
    (found [ sbrk max_int max_int; Event.Trim { bytes = -2; brk = min_int + 1 } ]);
  check_rule "split sizes summing past max_int" "split-algebra"
    (diags [ Event.Split { addr = 0; parent = -2; taken = max_int; remainder = max_int } ]);
  (* A payload near max_int under a design: the conformance pass sizes
     the request without raising. *)
  let r =
    check ~design:(Scenario.drr_paper_design ())
      (numbered [ sbrk 4096 4096; alloc ~tag:4 max_int max_int 4 ])
  in
  check_rule "payload of max_int under a design" "footprint-below-live" r.Sanitizer.diags

(* --- conformance defects -------------------------------------------------- *)

let drr = Decision_vector.drr_custom

let design vec = { Explorer.vector = vec; params = Manager.default_params }

let conform vec evs = (check ~design:(design vec) (numbered evs)).Sanitizer.diags

let a_split = Event.Split { addr = 0; parent = 4096; taken = 504; remainder = 3592 }
let a_coalesce = Event.Coalesce { addr = 0; merged = 560; absorbed = 56 }

let conformance_gates () =
  (* drr splits and coalesces always: both events are conforming shapes. *)
  check_rule "E2 = never" "e2-never-split"
    (conform { drr with e2 = Never } [ sbrk 4096 4096; a_split ]);
  check_rule "A5 never arms splitting" "split-gated-by-A5"
    (conform { drr with a5 = Coalesce_only; e2 = Never } [ sbrk 4096 4096; a_split ]);
  check_rule "D2 = never" "d2-never-coalesce"
    (conform { drr with d2 = Never } [ sbrk 4096 4096; a_coalesce ]);
  check_rule "A5 never arms coalescing" "coalesce-gated-by-A5"
    (conform { drr with a5 = Split_only; d2 = Never } [ sbrk 4096 4096; a_coalesce ]);
  check_rule "split below minimum block" "min-block"
    (conform drr
       [ sbrk 4096 4096; Event.Split { addr = 0; parent = 24; taken = 16; remainder = 8 } ]);
  (* An invalid vector cannot be conformed to: its rule violations surface. *)
  check_rule "invalid design" "split-gated-by-A5"
    (conform { drr with a5 = Coalesce_only } [])

(* A stream in which first fit picks a 504-byte block while a 56-byte block
   was adequate. The same events conform to a first-fit design and convict
   a best/exact-fit one. *)
let fit_lie_stream =
  [
    sbrk 4096 4096;
    alloc 500 504 4;
    (* base 0 *)
    alloc 50 56 508;
    (* base 504 *)
    alloc 40 48 564;
    (* base 560: guard, keeps the two frees apart from the wilderness *)
    free_ 50 508;
    free_ 500 4;
    alloc 40 504 4;
    (* first fit re-takes the 504-byte block; need was 48 *)
  ]

let rigid = { drr with a5 = Split_and_coalesce; d2 = Never; e2 = Never }

let fit_policy_lie () =
  check_clean "first fit taking a large block"
    (conform { rigid with c1 = First_fit } fit_lie_stream);
  check_rule "best fit taking a non-minimal block" "c1-fit-policy"
    (conform { rigid with c1 = Best_fit } fit_lie_stream);
  check_rule "exact fit taking a non-minimal block" "c1-fit-policy"
    (conform { rigid with c1 = Exact_fit } fit_lie_stream);
  (* Growing the heap although an adequate free block existed. *)
  check_rule "missed fit" "c1-fit-policy"
    (conform
       { rigid with c1 = First_fit }
       [
         sbrk 4096 4096;
         alloc 100 104 4;
         free_ 100 4;
         sbrk 4096 8192;
         alloc 50 56 4100;
       ]);
  check_rule "coalesce of non-free operands" "illegal-coalesce"
    (conform drr [ sbrk 4096 4096; alloc 500 504 4; alloc 52 56 508; a_coalesce ]);
  check_rule "trim of a non-free range" "illegal-trim"
    (conform drr [ sbrk 4096 4096; Event.Trim { bytes = 4096; brk = 0 } ])

(* --- shape linting --------------------------------------------------------- *)

let block ?(status = Block.Free) addr size = Block.v ~addr ~size ~status ~run_id:0

let shape_lint () =
  (* A healthy address-ordered list. *)
  let fs = Free_structure.create Address_ordered_list in
  Free_structure.insert fs (block 100 32);
  Free_structure.insert fs (block 200 32);
  check_clean "ordered list" (Shape.lint_structure fs);
  (* Break the address order behind the structure's back. *)
  Free_structure.unsafe_push_front fs (block 400 32);
  check_rule "unsorted address-ordered list" "free-structure-unsorted"
    (Shape.lint_structure fs);
  (* Per-size pool holding a foreign size. *)
  let pool = Free_structure.create Singly_linked_list in
  Free_structure.insert pool (block 0 64);
  Free_structure.unsafe_push_front pool (block 100 32);
  check_rule "foreign size in a dedicated pool" "pool-size-class"
    (Shape.lint_structure ~expect:(Manager.Exactly 64) pool);
  (* Same block linked twice. *)
  let dup = Free_structure.create Doubly_linked_list in
  Free_structure.insert dup (block 0 32);
  Free_structure.unsafe_push_front dup (block 0 32);
  check_rule "duplicate link" "free-structure-duplicate" (Shape.lint_structure dup);
  (* A used block on the free list. *)
  let used = Free_structure.create Singly_linked_list in
  Free_structure.unsafe_push_front used (block ~status:Block.Used 0 32);
  check_rule "used block linked free" "free-structure-status" (Shape.lint_structure used);
  (* Overlapping free blocks. *)
  let ov = Free_structure.create Doubly_linked_list in
  Free_structure.insert ov (block 0 64);
  Free_structure.unsafe_push_front ov (block 32 64);
  check_rule "overlapping free blocks" "free-structure-overlap" (Shape.lint_structure ov)

let manager_lint () =
  let space = Address_space.create () in
  let m = Manager.create Decision_vector.drr_custom space in
  let a = Manager.allocator m in
  let addrs = List.init 32 (fun i -> Dmm_core.Allocator.alloc a (16 + (8 * i))) in
  List.iteri (fun i addr -> if i mod 2 = 0 then Dmm_core.Allocator.free a addr) addrs;
  check_clean "healthy manager" (Shape.lint_manager m);
  (* Plant a bogus used block in a pool and watch the lint catch it. *)
  (match Manager.pool_views m with
  | [] -> Alcotest.fail "manager has no pools"
  | { Manager.fs; _ } :: _ ->
    Free_structure.unsafe_push_front fs (block ~status:Block.Used 2_000_000 64));
  check_rule "planted corruption" "free-structure-status" (Shape.lint_manager m)

(* --- whole-manager clean pass ---------------------------------------------- *)

(* Any (nat, nat) list maps to a valid trace (the Test_obs recipe). *)
let trace_of ops =
  let next = ref 0 in
  let live = ref [] in
  let events = ref [] in
  let push e = events := e :: !events in
  let alloc size =
    incr next;
    live := !next :: !live;
    push (Tevent.Alloc { id = !next; size = 1 + (size mod 4096) })
  in
  List.iter
    (fun (k, size) ->
      match k mod 8 with
      | 0 | 1 | 2 | 3 -> alloc size
      | 4 | 5 | 6 -> (
        match !live with
        | [] -> alloc size
        | l ->
          let n = List.length l in
          let id = List.nth l (size mod n) in
          live := List.filter (fun x -> x <> id) l;
          push (Tevent.Free { id }))
      | _ -> push (Tevent.Phase (size mod 3)))
    ops;
  Trace.of_list (List.rev !events)

let static_pool : Scenario.maker =
 fun ?probe () ->
  let space = Address_space.create ?probe () in
  Dmm_allocators.Static_pool.allocator
    (Dmm_allocators.Static_pool.create space
       [ (16, 512); (64, 512); (256, 256); (1024, 64); (4096, 16) ])

let grid_managers () =
  Scenario.baselines ()
  @ [
      ("static", static_pool);
      ("custom", Scenario.custom_manager (Scenario.drr_paper_design ()));
      ("custom-global", Scenario.custom_global (Scenario.render_paper_design ()));
    ]

(* The replay's whole stream, for the cases that inspect or tamper with
   it. *)
let capture trace (make : Scenario.maker) =
  let probe = Probe.create () in
  let captured = ref [] in
  Probe.attach probe (fun clock event -> captured := { Stream.clock; event } :: !captured);
  Replay.run ~probe trace (make ~probe ());
  Array.of_list (List.rev !captured)

(* Every shipped manager aligns payloads to its 4-byte tag word. *)
let aligned stream =
  Array.for_all
    (fun { Stream.event; _ } ->
      match event with Event.Alloc { addr; _ } -> addr mod 4 = 0 | _ -> true)
    stream

let qcheck_grid_clean =
  QCheck.Test.make ~name:"every shipped manager sanitizes clean" ~count:30
    QCheck.(list_of_size Gen.(5 -- 80) (pair small_nat small_nat))
    (fun ops ->
      let trace = trace_of ops in
      List.for_all
        (fun (_, make) ->
          let stream = capture trace make in
          Sanitizer.clean (check (Array.to_list stream)) && aligned stream)
        (grid_managers ()))

let drr_conformance_clean () =
  Dmm_workloads.Experiments.paper_scale := false;
  let trace = Dmm_workloads.Experiments.drr_trace_seed 7 in
  let sim = Dmm_engine.Sim.create trace in
  let d = Scenario.drr_paper_design () in
  let (r : Sanitizer.report) = Dmm_engine.Sim.sanitize sim d in
  Alcotest.(check bool) "conformance checked" true r.conformance_checked;
  check_clean "drr paper design on its own workload" r.Sanitizer.diags;
  Alcotest.(check bool) "events captured" true (r.Sanitizer.events > 0)

(* --- adversarial streams --------------------------------------------------- *)

let only_incomplete diags =
  diags <> [] && List.for_all (fun d -> d.Diag.rule_id = "incomplete-stream") diags

let tamper_gen =
  QCheck.(
    triple
      (list_of_size Gen.(20 -- 120) (pair small_nat small_nat))
      (int_range 0 2) (* 0 drop, 1 duplicate, 2 swap *)
      (pair small_nat small_nat))

let qcheck_tampered =
  QCheck.Test.make ~name:"tampered streams read as incomplete, not as heap bugs"
    ~count:60 tamper_gen
    (fun (ops, kind, (x, y)) ->
      let stream = capture (trace_of ops) Scenario.lea in
      let n = Array.length stream in
      QCheck.assume (n >= 4);
      (* Interior positions only: clipping the tail leaves a valid prefix. *)
      let i = 1 + (x mod (n - 2)) in
      let j = 1 + (y mod (n - 2)) in
      let lo = min i j and hi = max i j in
      let tampered =
        match kind with
        | 0 ->
          Array.append (Array.sub stream 0 lo)
            (Array.sub stream hi (n - hi)) (* drop a slice *)
        | 1 ->
          Array.concat
            [ Array.sub stream 0 lo; [| stream.(lo) |]; Array.sub stream lo (n - lo) ]
        | _ ->
          if lo = hi then [| stream.(0) |]
          else begin
            let t = Array.copy stream in
            let tmp = t.(lo) in
            t.(lo) <- t.(hi);
            t.(hi) <- tmp;
            t
          end
      in
      QCheck.assume (tampered <> stream);
      let r = check ~design:(Scenario.drr_paper_design ()) (Array.to_list tampered) in
      (kind = 2 && Array.length tampered = 1 && Sanitizer.clean r)
      || only_incomplete r.Sanitizer.diags)

let qcheck_truncated_tail =
  QCheck.Test.make ~name:"a truncated tail still sanitizes clean (prefix-closed)"
    ~count:30
    QCheck.(pair (list_of_size Gen.(20 -- 120) (pair small_nat small_nat)) small_nat)
    (fun (ops, cut) ->
      let stream = capture (trace_of ops) Scenario.lea in
      let n = Array.length stream in
      QCheck.assume (n >= 2);
      let keep = 1 + (cut mod n) in
      Sanitizer.clean (check (Array.to_list (Array.sub stream 0 keep))))

let qcheck_no_crash =
  let arbitrary_event =
    QCheck.Gen.(
      let num = int_range (-64) 8192 in
      oneof
        [
          map3
            (fun p g a -> Event.Alloc { payload = p; gross = g; tag = a mod 8; addr = a })
            num num num;
          map2 (fun p a -> Event.Free { payload = p; addr = a }) num num;
          map3
            (fun a p t -> Event.Split { addr = a; parent = p; taken = t; remainder = p - t })
            num num num;
          map3 (fun a m b -> Event.Coalesce { addr = a; merged = m; absorbed = b }) num num num;
          map (fun p -> Event.Phase p) num;
          map2 (fun b k -> Event.Sbrk { bytes = b; brk = k }) num num;
          map2 (fun b k -> Event.Trim { bytes = b; brk = k }) num num;
          map (fun s -> Event.Fit_scan { steps = s }) num;
        ])
  in
  QCheck.Test.make ~name:"sanitizer total on arbitrary well-clocked streams" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 60) arbitrary_event))
    (fun evs ->
      let r = check ~design:(Scenario.drr_paper_design ()) (numbered evs) in
      r.Sanitizer.events = List.length evs)

(* Exact integers for the model below: [(hi, lo)] is [hi * 2^31 + lo]
   with [0 <= lo < 2^31], wide enough for any sum of a few hundred ints
   and built unlike the sanitizer's own sums. *)
module Wide = struct
  let mask = 0x7fff_ffff
  let of_int v = (v asr 31, v land mask)

  let add (h1, l1) (h2, l2) =
    let l = l1 + l2 in
    (h1 + h2 + (l asr 31), l land mask)

  let neg (h, l) = if l = 0 then (-h, 0) else (-h - 1, mask + 1 - l)
  let gt (h1, l1) (h2, l2) = h1 > h2 || (h1 = h2 && l1 > l2)

  (* Whether the value is an OCaml int, in [-2^62, 2^62). *)
  let fits (h, _) = h >= -(1 lsl 31) && h < 1 lsl 31

  let rec to_string (h, l) =
    if h < 0 then "-" ^ to_string (neg (h, l))
    else if h = 0 then string_of_int l
    else
      (* Long division by ten, one decimal digit at a time. *)
      let rec digits h l acc =
        if h = 0 && l = 0 then acc
        else
          let t = ((h mod 10) lsl 31) + l in
          digits (h / 10) (t / 10) (string_of_int (t mod 10) ^ acc)
      in
      digits h l ""
end

(* Pass 1's live-range checks against a model over [Map.Make (Int)]: on
   streams of sbrks, allocations and frees at clustered and extreme
   addresses (overlaps with either neighbour, re-allocations over live
   addresses, frees of absent addresses, payload mismatches), the
   address and footprint diagnostics agree in rule, index and text. The
   model sums in [Wide], so a block ending past [max_int] still overlaps
   its successor and a payload of [max_int] still exceeds the bytes
   held. *)
let qcheck_live_ranges =
  let module M = Map.Make (Int) in
  let rules = [ "live-overlap"; "invalid-free"; "free-payload-mismatch"; "footprint-below-live" ] in
  let model events =
    let out = ref [] in
    let add i rule fmt = Format.kasprintf (fun m -> out := (rule, i, m) :: !out) fmt in
    let ends_past a n x = Wide.gt (Wide.add (Wide.of_int a) (Wide.of_int n)) (Wide.of_int x) in
    let range a n =
      if Wide.fits (Wide.add (Wide.of_int a) (Wide.of_int n)) then
        Printf.sprintf "[%d,%d)" a (a + n)
      else Printf.sprintf "[%d,+%d)" a n
    in
    let live = ref M.empty and live_bytes = ref (Wide.of_int 0) and held = ref (Wide.of_int 0) in
    List.iteri
      (fun i -> function
        | Event.Sbrk { bytes; _ } -> held := Wide.add !held (Wide.of_int bytes)
        | Event.Alloc { payload; addr; _ } ->
          (if M.mem addr !live then
             add i "live-overlap" "address %d returned while still live (its free was never recorded)" addr
           else begin
             (match M.find_last_opt (fun a -> a < addr) !live with
             | Some (a, p) when ends_past a p addr ->
               add i "live-overlap" "new block %s overlaps live block %s"
                 (range addr (max 1 payload)) (range a p)
             | _ -> ());
             match M.find_first_opt (fun a -> a > addr) !live with
             | Some (a, p) when ends_past addr payload a ->
               add i "live-overlap" "new block %s overlaps live block %s" (range addr payload)
                 (range a p)
             | _ -> ()
           end);
          live := M.add addr payload !live;
          live_bytes := Wide.add !live_bytes (Wide.of_int payload);
          if Wide.gt !live_bytes !held then
            add i "footprint-below-live"
              "live payload (%s bytes) exceeds memory obtained from the system (%s bytes)"
              (Wide.to_string !live_bytes) (Wide.to_string !held)
        | Event.Free { payload; addr } -> (
          match M.find_opt addr !live with
          | None ->
            add i "invalid-free" "free of address %d, which is not live (double free or wild pointer)"
              addr
          | Some p ->
            if p <> payload then
              add i "free-payload-mismatch"
                "free of address %d records %d payload bytes but the allocation recorded %d" addr
                payload p;
            live := M.remove addr !live;
            live_bytes := Wide.add !live_bytes (Wide.neg (Wide.of_int p)))
        | _ -> ())
      events;
    List.rev !out
  in
  let gen =
    let open QCheck.Gen in
    let addr = frequency [ (8, map (fun i -> 8 * i) (-4 -- 40)); (1, oneofl [ min_int; min_int + 1; max_int ]) ] in
    let payload = frequency [ (8, 1 -- 40); (1, oneofl [ 0; -8; max_int ]) ] in
    list_size (0 -- 80)
      (frequency
         [
           (1, map (fun b -> sbrk b 0) (1 -- 256));
           (5, map2 (fun p a -> alloc p (p + 8) a) payload addr);
           (4, map2 (fun p a -> free_ p a) payload addr);
         ])
  in
  QCheck.Test.make ~name:"live-range checks agree with a Map model" ~count:300
    (QCheck.make
       ~print:(fun evs -> String.concat "; " (List.map (Format.asprintf "%a" Event.pp) evs))
       gen)
    (fun events ->
      let got =
        List.filter_map
          (fun (d : Diag.t) ->
            if List.mem d.Diag.rule_id rules then Some (d.Diag.rule_id, Option.get d.Diag.index, d.Diag.explanation)
            else None)
          (check (numbered events)).Sanitizer.diags
      in
      got = model events)

(* --- JSONL round trip ------------------------------------------------------- *)

let jsonl_roundtrip () =
  let stream = capture (trace_of [ (0, 10); (1, 200); (4, 0); (2, 30); (4, 1) ]) Scenario.lea in
  let text =
    String.concat "\n"
      (Array.to_list
         (Array.map
            (fun { Stream.clock; event } -> Event.to_json ~clock event)
            stream))
  in
  let parse text =
    Stream.fold_source (Stream.source_of_string text) ~init:[] ~f:(fun acc e -> e :: acc)
    |> Result.map (fun rev -> Array.of_list (List.rev rev))
  in
  (match parse text with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    Alcotest.(check int) "length survives" (Array.length stream) (Array.length parsed);
    Alcotest.(check bool) "entries survive" true (parsed = stream));
  (match parse "{\"t\":0,\"ev\":\"warp\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown event kind must not parse");
  match parse "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

let tests =
  ( "sanitizer",
    [
      Alcotest.test_case "invariant defect classes" `Quick invariant_defects;
      Alcotest.test_case "sums near max_int do not wrap" `Quick sums_near_max_int;
      Alcotest.test_case "conformance gates" `Quick conformance_gates;
      Alcotest.test_case "fit-policy lies" `Quick fit_policy_lie;
      Alcotest.test_case "free-structure shape lint" `Quick shape_lint;
      Alcotest.test_case "manager lint" `Quick manager_lint;
      Alcotest.test_case "drr design conformance-clean" `Slow drr_conformance_clean;
      Alcotest.test_case "jsonl round trip" `Quick jsonl_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_grid_clean;
      QCheck_alcotest.to_alcotest qcheck_tampered;
      QCheck_alcotest.to_alcotest qcheck_truncated_tail;
      QCheck_alcotest.to_alcotest qcheck_no_crash;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 37 |]) qcheck_live_ranges;
    ] )
