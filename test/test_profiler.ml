(* The lifetime profiler's contracts: span matching degrades defective
   streams to counted [unmatched] buckets (never an exception), the heat
   map conserves exact byte counts through both of its rescaling axes,
   and the Event JSON field sets are pinned to what EXPERIMENTS.md
   documents. *)

module Probe = Dmm_obs.Probe
module Obs_event = Dmm_obs.Event
module Log_hist = Dmm_obs.Log_hist
module Lifetime_sink = Dmm_obs.Lifetime_sink
module Heatmap_sink = Dmm_obs.Heatmap_sink
module Chrome_sink = Dmm_obs.Chrome_sink
module Stream = Dmm_check.Stream

let feed_lifetime events =
  let t = Lifetime_sink.create () in
  List.iteri (fun clock e -> Lifetime_sink.on_event t clock e) events;
  t

let feed_heatmap ?rows ?cols events =
  let t = Heatmap_sink.create ?rows ?cols () in
  List.iteri (fun clock e -> Heatmap_sink.on_event t clock e) events;
  t

let alloc ?(tag = 4) ~payload ~gross addr =
  Obs_event.Alloc { payload; gross; tag; addr }

let free ~payload addr = Obs_event.Free { payload; addr }

(* ------------------------------------------------------------------ *)
(* span matching                                                       *)

let test_span_basics () =
  let t =
    feed_lifetime
      [
        alloc ~payload:8 ~gross:16 0;      (* clock 0 *)
        alloc ~payload:8 ~gross:16 16;     (* clock 1 *)
        free ~payload:8 0;                 (* clock 2: lifetime 2 *)
        Obs_event.Phase 1;                 (* clock 3 *)
        free ~payload:8 16;                (* clock 4: lifetime 3, escaped *)
      ]
  in
  Alcotest.(check int) "completed" 2 (Lifetime_sink.spans t);
  Alcotest.(check int) "no leaks" 0 (Lifetime_sink.live_spans t);
  Alcotest.(check int) "lifetime count" 2 (Log_hist.count (Lifetime_sink.lifetimes t));
  Alcotest.(check int) "max lifetime" 3 (Log_hist.max_value (Lifetime_sink.lifetimes t));
  match Lifetime_sink.phase_rows t with
  | [ p0 ] ->
    Alcotest.(check int) "phase 0 spans" 2 p0.Lifetime_sink.spans;
    Alcotest.(check int) "phase 0 contained" 1 p0.Lifetime_sink.contained;
    Alcotest.(check int) "phase 0 escaped" 1 p0.Lifetime_sink.escaped
  | rows -> Alcotest.failf "expected 1 phase row, got %d" (List.length rows)

let test_unmatched_free () =
  let t =
    feed_lifetime
      [
        free ~payload:8 0;                 (* free without alloc *)
        alloc ~payload:8 ~gross:16 16;
        free ~payload:8 16;
        free ~payload:8 16;                (* double free *)
      ]
  in
  let u = Lifetime_sink.unmatched t in
  Alcotest.(check int) "free_without_alloc" 2 u.Lifetime_sink.free_without_alloc;
  Alcotest.(check int) "realloc_over_live" 0 u.Lifetime_sink.realloc_over_live;
  Alcotest.(check int) "the real span still completed" 1 (Lifetime_sink.spans t)

let test_realloc_over_live () =
  let t =
    feed_lifetime
      [
        alloc ~payload:8 ~gross:16 0;      (* clock 0, abandoned *)
        alloc ~payload:24 ~gross:32 0;     (* clock 1, over a live span *)
        free ~payload:24 0;                (* clock 2: matches the second *)
      ]
  in
  let u = Lifetime_sink.unmatched t in
  Alcotest.(check int) "realloc_over_live" 1 u.Lifetime_sink.realloc_over_live;
  Alcotest.(check int) "completed" 1 (Lifetime_sink.spans t);
  Alcotest.(check int) "abandoned span is not a leak" 0 (Lifetime_sink.live_spans t);
  (* The completed span is the second one: lifetime 1, class <=32. *)
  Alcotest.(check int) "lifetime of the reused span" 1
    (Log_hist.max_value (Lifetime_sink.lifetimes t));
  match Lifetime_sink.class_rows t with
  | [ c16; c32 ] ->
    Alcotest.(check int) "class 16 born" 1 c16.Lifetime_sink.spans;
    Alcotest.(check int) "class 32 completed" 1
      (Log_hist.count c32.Lifetime_sink.lifetimes)
  | rows -> Alcotest.failf "expected 2 class rows, got %d" (List.length rows)

let test_interleaved_reuse_across_phases () =
  let t =
    feed_lifetime
      [
        alloc ~payload:8 ~gross:16 64;     (* clock 0, phase 0 *)
        free ~payload:8 64;                (* clock 1, contained *)
        Obs_event.Phase 1;
        alloc ~payload:8 ~gross:16 64;     (* clock 3, same address, phase 1 *)
        Obs_event.Phase 2;
        free ~payload:8 64;                (* clock 5, escaped from phase 1 *)
      ]
  in
  Alcotest.(check int) "completed" 2 (Lifetime_sink.spans t);
  let u = Lifetime_sink.unmatched t in
  Alcotest.(check int) "reuse is not a defect" 0
    (u.Lifetime_sink.free_without_alloc + u.Lifetime_sink.realloc_over_live);
  match Lifetime_sink.phase_rows t with
  | [ p0; p1 ] ->
    Alcotest.(check int) "phase 0 contained" 1 p0.Lifetime_sink.contained;
    Alcotest.(check int) "phase 1 escaped" 1 p1.Lifetime_sink.escaped;
    Alcotest.(check int) "phase 1 contained" 0 p1.Lifetime_sink.contained
  | rows -> Alcotest.failf "expected 2 phase rows, got %d" (List.length rows)

let test_leaks () =
  let t =
    feed_lifetime
      [
        alloc ~payload:8 ~gross:16 0;
        Obs_event.Phase 3;
        alloc ~payload:100 ~gross:112 16;  (* phase 3 only ever leaks *)
      ]
  in
  Alcotest.(check int) "completed" 0 (Lifetime_sink.spans t);
  Alcotest.(check int) "live spans" 2 (Lifetime_sink.live_spans t);
  Alcotest.(check int) "leaked bytes" 128 (Lifetime_sink.leaked_bytes t);
  (match Lifetime_sink.phase_rows t with
  | [ p0; p3 ] ->
    Alcotest.(check int) "phase 0 leaked" 1 p0.Lifetime_sink.leaked;
    Alcotest.(check int) "leak-only phase id" 3 p3.Lifetime_sink.phase;
    Alcotest.(check int) "leak-only phase row" 1 p3.Lifetime_sink.leaked
  | rows -> Alcotest.failf "expected 2 phase rows, got %d" (List.length rows));
  List.iter
    (fun (r : Lifetime_sink.class_row) ->
      Alcotest.(check int)
        (Printf.sprintf "class %d leak bytes" r.Lifetime_sink.size_class)
        (if r.Lifetime_sink.size_class = 16 then 16 else 112)
        r.Lifetime_sink.leaked_bytes)
    (Lifetime_sink.class_rows t)

(* Defective streams degrade to counted buckets — and the counts obey an
   exact conservation law: every alloc ends up completed, still live or
   abandoned-by-realloc; every free either completes a span or lands in
   free_without_alloc. *)
let span_conservation =
  QCheck.Test.make ~name:"span accounting conserves allocs and frees" ~count:200
    QCheck.(list_of_size Gen.(0 -- 120) (pair small_nat small_nat))
    (fun ops ->
      let events =
        List.map
          (fun (k, v) ->
            match k mod 5 with
            | 0 | 1 -> alloc ~payload:(1 + (v mod 64)) ~gross:(16 + (v mod 64)) (v mod 7 * 16)
            | 2 | 3 -> free ~payload:(1 + (v mod 64)) (v mod 7 * 16)
            | _ -> Obs_event.Phase (v mod 3))
          ops
      in
      let t = feed_lifetime events in
      let allocs =
        List.length (List.filter (function Obs_event.Alloc _ -> true | _ -> false) events)
      in
      let frees =
        List.length (List.filter (function Obs_event.Free _ -> true | _ -> false) events)
      in
      let u = Lifetime_sink.unmatched t in
      allocs
      = Lifetime_sink.spans t + Lifetime_sink.live_spans t
        + u.Lifetime_sink.realloc_over_live
      && frees = Lifetime_sink.spans t + u.Lifetime_sink.free_without_alloc)

(* ------------------------------------------------------------------ *)
(* heat map                                                            *)

let sum = Array.fold_left ( + ) 0

let last_row t =
  let g = Heatmap_sink.grid t in
  (g, List.nth g.Heatmap_sink.g_rows (List.length g.Heatmap_sink.g_rows - 1))

let test_heatmap_conservation () =
  let events =
    [
      Obs_event.Sbrk { bytes = 4096; brk = 4096 };
      alloc ~payload:100 ~gross:112 0;
      alloc ~payload:50 ~gross:64 112;
      alloc ~payload:200 ~gross:208 176;
      free ~payload:50 112;
    ]
  in
  let t = feed_heatmap events in
  let g, r = last_row t in
  Alcotest.(check int) "live bytes conserved" 300 (sum r.Heatmap_sink.live);
  Alcotest.(check int) "overhead bytes conserved" 20 (sum r.Heatmap_sink.overhead);
  Alcotest.(check int) "brk" 4096 r.Heatmap_sink.r_brk;
  let free_total =
    List.init g.Heatmap_sink.g_cols (Heatmap_sink.free_in g r)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "free = brk - live - overhead" (4096 - 320) free_total

let test_heatmap_addr_rescale () =
  let events =
    [
      alloc ~payload:96 ~gross:96 0;
      (* Far beyond the initial 64 cols * 64 B extent: forces doublings. *)
      Obs_event.Sbrk { bytes = 1 lsl 20; brk = 1 lsl 20 };
      alloc ~payload:512 ~gross:512 ((1 lsl 20) - 512);
    ]
  in
  let t = feed_heatmap events in
  let g, r = last_row t in
  Alcotest.(check bool) "extent fits"
    true
    (g.Heatmap_sink.g_cols * g.Heatmap_sink.g_addr_per_col >= 1 lsl 20);
  Alcotest.(check int) "live conserved across column merges" 608
    (sum r.Heatmap_sink.live);
  Alcotest.(check int) "first column keeps the early block" 96
    r.Heatmap_sink.live.(0);
  Alcotest.(check int) "last column holds the late block" 512
    r.Heatmap_sink.live.(g.Heatmap_sink.g_cols - 1)

let test_heatmap_time_doubling () =
  let rows = 8 in
  let events =
    List.concat
      (List.init 100 (fun i ->
           [ alloc ~payload:8 ~gross:16 (16 * (i mod 50)); free ~payload:8 (16 * (i mod 50)) ]))
  in
  let t = feed_heatmap ~rows events in
  let g = Heatmap_sink.grid t in
  let n = List.length g.Heatmap_sink.g_rows in
  Alcotest.(check bool) "row budget respected" true (n <= rows + 1);
  Alcotest.(check bool) "at least half the budget used" true (n >= rows / 2);
  let clocks = List.map (fun (r : Heatmap_sink.row) -> r.Heatmap_sink.r_clock) g.Heatmap_sink.g_rows in
  Alcotest.(check bool) "snapshots ordered" true
    (List.sort compare clocks = clocks);
  let _, last = last_row t in
  Alcotest.(check int) "all freed at the end" 0 (sum last.Heatmap_sink.live)

(* The grid is a pure function of the event stream: the invariant behind
   `dmm profile --jsonl` matching the live replay byte for byte. *)
let heatmap_deterministic =
  QCheck.Test.make ~name:"heat map depends only on the stream" ~count:100
    QCheck.(list_of_size Gen.(0 -- 150) (pair small_nat small_nat))
    (fun ops ->
      let events =
        List.map
          (fun (k, v) ->
            match k mod 6 with
            | 0 | 1 -> alloc ~payload:(1 + (v mod 300)) ~gross:(16 + (v mod 300)) (v * 16)
            | 2 -> free ~payload:(1 + (v mod 300)) (v * 16)
            | 3 -> Obs_event.Sbrk { bytes = 4096; brk = 4096 * (1 + (v mod 9)) }
            | 4 -> Obs_event.Trim { bytes = 0; brk = 4096 * (v mod 9) }
            | _ -> Obs_event.Fit_scan { steps = v })
          ops
      in
      let show t = Format.asprintf "%a" Heatmap_sink.pp t in
      show (feed_heatmap ~rows:6 ~cols:16 events)
      = show (feed_heatmap ~rows:6 ~cols:16 events))

(* ------------------------------------------------------------------ *)
(* chrome async spans                                                  *)

let test_chrome_async_span () =
  let cs = Chrome_sink.create ~name:"spans" ~pid:9 in
  let t =
    Lifetime_sink.create
      ~on_span:(fun (s : Lifetime_sink.span) ->
        Chrome_sink.async_span cs ~id:1 ~name:"<=16 B" ~start_clock:s.Lifetime_sink.born_clock
          ~end_clock:s.Lifetime_sink.freed_clock ~payload:s.Lifetime_sink.payload)
      ()
  in
  List.iteri
    (fun clock e -> Lifetime_sink.on_event t clock e)
    [ alloc ~payload:8 ~gross:16 0; free ~payload:8 0 ];
  (* One begin + one end per completed span. *)
  Alcotest.(check int) "b/e pair buffered" 2 (Chrome_sink.events cs);
  let body =
    Temp_file.with_fresh_path (fun path ->
        Chrome_sink.write_file path [ cs ];
        Temp_file.read path)
  in
  let has needle =
    let n = String.length needle and h = String.length body in
    let rec go i = i + n <= h && (String.sub body i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "begin event" true (has {|"ph":"b"|});
  Alcotest.(check bool) "end event" true (has {|"ph":"e"|});
  Alcotest.(check bool) "ends at the free clock" true (has {|"ts":1|})

(* ------------------------------------------------------------------ *)
(* Event JSON round trip                                               *)

(* The exact field sets EXPERIMENTS.md documents, one pin per
   constructor: a renamed or dropped field breaks recorded streams. *)
let test_event_field_sets () =
  let check_json name ev expected =
    Alcotest.(check string) name expected (Obs_event.to_json ~clock:7 ev)
  in
  check_json "alloc"
    (Obs_event.Alloc { payload = 8; gross = 16; tag = 4; addr = 32 })
    {|{"t":7,"ev":"alloc","payload":8,"gross":16,"tag":4,"addr":32}|};
  check_json "free"
    (Obs_event.Free { payload = 8; addr = 32 })
    {|{"t":7,"ev":"free","payload":8,"addr":32}|};
  check_json "split"
    (Obs_event.Split { addr = 64; parent = 0; taken = 16; remainder = 48 })
    {|{"t":7,"ev":"split","addr":64,"parent":0,"taken":16,"remainder":48}|};
  check_json "coalesce"
    (Obs_event.Coalesce { addr = 0; merged = 64; absorbed = 2 })
    {|{"t":7,"ev":"coalesce","addr":0,"merged":64,"absorbed":2}|};
  check_json "phase" (Obs_event.Phase 3) {|{"t":7,"ev":"phase","id":3}|};
  check_json "sbrk"
    (Obs_event.Sbrk { bytes = 4096; brk = 8192 })
    {|{"t":7,"ev":"sbrk","bytes":4096,"brk":8192}|};
  check_json "trim"
    (Obs_event.Trim { bytes = 4096; brk = 4096 })
    {|{"t":7,"ev":"trim","bytes":4096,"brk":4096}|};
  check_json "fit_scan" (Obs_event.Fit_scan { steps = 5 })
    {|{"t":7,"ev":"fit_scan","steps":5}|}

let gen_event =
  let open QCheck.Gen in
  let nat = 0 -- 1_000_000 in
  oneof
    [
      map
        (fun ((p, g), (t, a)) -> Obs_event.Alloc { payload = p; gross = g; tag = t; addr = a })
        (pair (pair nat nat) (pair nat nat));
      map (fun (p, a) -> Obs_event.Free { payload = p; addr = a }) (pair nat nat);
      map
        (fun ((a, p), (t, r)) ->
          Obs_event.Split { addr = a; parent = p; taken = t; remainder = r })
        (pair (pair nat nat) (pair nat nat));
      map
        (fun (a, (m, ab)) -> Obs_event.Coalesce { addr = a; merged = m; absorbed = ab })
        (pair nat (pair nat nat));
      map (fun p -> Obs_event.Phase p) nat;
      map (fun (b, k) -> Obs_event.Sbrk { bytes = b; brk = k }) (pair nat nat);
      map (fun (b, k) -> Obs_event.Trim { bytes = b; brk = k }) (pair nat nat);
      map (fun s -> Obs_event.Fit_scan { steps = s }) nat;
    ]

let arb_event =
  QCheck.make gen_event ~print:(fun e -> Format.asprintf "%a" Obs_event.pp e)

(* to_json ∘ parse is the identity over every constructor: what the
   Jsonl_sink writes, the Check.Stream loader reads back verbatim. *)
let event_round_trip =
  QCheck.Test.make ~name:"Event.to_json round-trips through Stream parsing" ~count:500
    QCheck.(list_of_size Gen.(1 -- 40) arb_event)
    (fun events ->
      let text =
        String.concat "\n"
          (List.mapi (fun clock e -> Obs_event.to_json ~clock e) events)
        ^ "\n"
      in
      match
        Stream.fold_source (Stream.source_of_string text) ~init:[] ~f:(fun acc e -> e :: acc)
      with
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg
      | Ok rev ->
        let stream = List.rev rev in
        List.length stream = List.length events
        && List.for_all2
             (fun e (entry : Stream.entry) -> e = entry.Stream.event)
             events stream
        && List.for_all
             (fun (entry : Stream.entry) ->
               entry.Stream.clock >= 0)
             stream)

(* The span table against a naive model — an association list of live
   spans and one list of lifetimes per size class and per phase — on
   streams that revisit phases, re-allocate live addresses, free absent
   ones and use sizes and ids at the ends of the int range. Every
   printed figure agrees, byte sums saturating at [max_int]. *)
let span_table_model =
  let open QCheck.Gen in
  let addr = frequency [ (6, map (fun i -> 16 * i) (0 -- 12)); (1, oneofl [ min_int; -16; max_int ]) ] in
  let gross =
    frequency
      [
        (6, oneofl [ 0; 1; 2; 3; 16; 17; 32; 33; 4096 ]);
        (1, oneofl [ -5; 1 lsl 61; (1 lsl 61) + 1; max_int ]);
        (1, int);
      ]
  in
  let event =
    frequency
      [
        (5, map3 (fun p g a -> alloc ~payload:p ~gross:g a) (1 -- 64) gross addr);
        (4, map2 (fun p a -> free ~payload:p a) (1 -- 64) addr);
        (1, map (fun p -> Obs_event.Phase p) (oneofl [ 0; 1; 2; -3; max_int ]));
      ]
  in
  let model events =
    let live = ref [] and classes = ref [] and phases = ref [] in
    let phase = ref 0 and fwa = ref 0 and realloc = ref 0 and completed = ref 0 in
    let bump tbl key f =
      let spans, lifetimes = Option.value ~default:(0, []) (List.assoc_opt key !tbl) in
      tbl := (key, f (spans, lifetimes)) :: List.remove_assoc key !tbl
    in
    List.iteri
      (fun clock -> function
        | Obs_event.Phase p -> phase := p
        | Obs_event.Alloc { gross; addr; _ } ->
          if List.mem_assoc addr !live then incr realloc;
          live := (addr, (gross, clock, !phase)) :: List.remove_assoc addr !live;
          bump classes (Dmm_util.Size.pow2_class gross) (fun (n, l) -> (n + 1, l));
          bump phases !phase (fun (n, l) -> (n + 1, l))
        | Obs_event.Free { addr; _ } -> (
          match List.assoc_opt addr !live with
          | None -> incr fwa
          | Some (gross, born, p) ->
            live := List.remove_assoc addr !live;
            incr completed;
            let life = clock - born and contained = p = !phase in
            bump classes (Dmm_util.Size.pow2_class gross) (fun (n, l) -> (n, life :: l));
            bump phases p (fun (n, l) -> (n, (life, contained) :: l)))
        | _ -> ())
      events;
    (!live, !classes, !phases, !fwa, !realloc, !completed)
  in
  let hist_digest h = (Log_hist.count h, Log_hist.sum h, Log_hist.max_value h) in
  let digest_of l = (List.length l, List.fold_left ( + ) 0 l, List.fold_left max 0 l) in
  QCheck.Test.make ~name:"span table agrees with a naive span model" ~count:300
    (QCheck.make
       ~print:(fun evs -> String.concat "; " (List.map (Format.asprintf "%a" Obs_event.pp) evs))
       (list_size (0 -- 80) event))
    (fun events ->
      let t = feed_lifetime events in
      let live, classes, phases, fwa, realloc, completed = model events in
      let live_in key_of = List.filter (fun (_, span) -> key_of span) live in
      (* Leaked bytes count a negative size as 0 and stop at [max_int]:
         summed in 64 bits, where two capped sums cannot wrap. *)
      let bytes spans =
        List.fold_left
          (fun acc (_, (g, _, _)) ->
            Int64.to_int (Int64.min (Int64.of_int max_int) (Int64.add (Int64.of_int acc) (Int64.of_int (max 0 g)))))
          0 spans
      in
      let want_classes =
        List.sort compare
          (List.map
             (fun (c, (spans, lifetimes)) ->
               let l = live_in (fun (g, _, _) -> Dmm_util.Size.pow2_class g = c) in
               (c, spans, List.length l, bytes l, digest_of lifetimes))
             classes)
      in
      let got_classes =
        List.map
          (fun (r : Lifetime_sink.class_row) ->
            (r.size_class, r.spans, r.live, r.leaked_bytes, hist_digest r.lifetimes))
          (Lifetime_sink.class_rows t)
      in
      let want_phases =
        List.sort compare
          (List.map
             (fun (p, (spans, lifetimes)) ->
               let inside = List.filter snd lifetimes in
               ( p,
                 spans,
                 List.length inside,
                 List.length lifetimes - List.length inside,
                 List.length (live_in (fun (_, _, q) -> q = p)),
                 digest_of (List.map fst lifetimes) ))
             phases)
      in
      let got_phases =
        List.map
          (fun (r : Lifetime_sink.phase_row) ->
            (r.phase, r.spans, r.contained, r.escaped, r.leaked, hist_digest r.lifetimes))
          (Lifetime_sink.phase_rows t)
      in
      let u = Lifetime_sink.unmatched t in
      got_classes = want_classes && got_phases = want_phases
      && u.Lifetime_sink.free_without_alloc = fwa
      && u.Lifetime_sink.realloc_over_live = realloc
      && Lifetime_sink.spans t = completed
      && Lifetime_sink.live_spans t = List.length live
      && Lifetime_sink.leaked_bytes t = bytes live)

let unit_tests =
  [
    Alcotest.test_case "span basics and phase containment" `Quick test_span_basics;
    Alcotest.test_case "free-without-alloc and double-free degrade" `Quick
      test_unmatched_free;
    Alcotest.test_case "alloc over a live span degrades" `Quick test_realloc_over_live;
    Alcotest.test_case "same-address reuse across phases" `Quick
      test_interleaved_reuse_across_phases;
    Alcotest.test_case "never-freed spans are counted leaks" `Quick test_leaks;
    Alcotest.test_case "heat map conserves bytes" `Quick test_heatmap_conservation;
    Alcotest.test_case "heat map address rescaling" `Quick test_heatmap_addr_rescale;
    Alcotest.test_case "heat map time doubling" `Quick test_heatmap_time_doubling;
    Alcotest.test_case "chrome async span export" `Quick test_chrome_async_span;
    Alcotest.test_case "event JSON field sets pinned" `Quick test_event_field_sets;
  ]

let qcheck = [ span_conservation; heatmap_deterministic; event_round_trip ]

let tests =
  ( "profiler",
    unit_tests
    @ List.map QCheck_alcotest.to_alcotest qcheck
    @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |]) span_table_model ] )
