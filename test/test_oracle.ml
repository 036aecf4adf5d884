(* The Merlin-style lifetime oracle: exact death times on hand-built
   streams, leak detection, and qcheck properties tying a decoded stream
   to the same events fed from memory and pinning the soundness envelope
   (birth <= death <= free, drag >= 0, planted leaks found exactly). *)

module Event = Dmm_obs.Event
module Log_hist = Dmm_obs.Log_hist
module Stream = Dmm_check.Stream
module Oracle = Dmm_check.Oracle
module Diag = Dmm_check.Diag
module Trace = Dmm_trace.Trace
module Scenario = Dmm_workloads.Scenario
module Gcheap = Dmm_workloads.Gcheap

(* Feed (clock, event) pairs one entry at a time, as a probe would. *)
let run pairs =
  let t = Oracle.create () in
  List.iter (fun (clock, event) -> Oracle.feed t { Stream.clock; event }) pairs;
  Oracle.finalize t

let alloc ~addr payload = Event.Alloc { payload; gross = payload + 8; tag = 8; addr }
let free ~addr payload = Event.Free { payload; addr }

(* ------------------------------------------------------------------ *)
(* hand-built streams with known answers                               *)

(* A is rooted, points at B, loses its root one clock before its free;
   B is reachable only through A. Both deaths are exact. *)
let exact_death_times () =
  let r =
    run
      [
        (0, alloc ~addr:0 16);
        (1, Event.Root_add { addr = 0 });
        (2, alloc ~addr:64 16);
        (3, Event.Ptr_write { src = 0; field = 0; old_dst = -1; new_dst = 64 });
        (4, Event.Root_remove { addr = 0 });
        (5, free ~addr:0 16);
        (6, free ~addr:64 16);
      ]
  in
  Alcotest.(check bool) "graph stream" true r.Oracle.r_graph;
  Alcotest.(check int) "objects" 2 (Array.length r.Oracle.r_objects);
  Alcotest.(check int) "freed" 2 r.Oracle.r_freed;
  Alcotest.(check int) "leaks" 0 (List.length r.Oracle.r_leaks);
  Alcotest.(check int) "end live" 0 r.Oracle.r_end_live;
  Alcotest.(check int) "defects" 0 (Oracle.defect_count r.Oracle.r_defects);
  let a = r.Oracle.r_objects.(0) and b = r.Oracle.r_objects.(1) in
  (* A became unreachable when its root dropped at clock 4. *)
  Alcotest.(check int) "A death" 4 a.Oracle.o_death;
  (* B's last reference (A's slot) died with A's free at clock 5. *)
  Alcotest.(check int) "B death" 5 b.Oracle.o_death;
  Alcotest.(check int) "drag count" 2 (Log_hist.count r.Oracle.r_drag);
  Alcotest.(check int) "drag total" 2 (Log_hist.sum r.Oracle.r_drag);
  Alcotest.(check int) "drag max" 1 (Log_hist.max_value r.Oracle.r_drag)

(* Free of a still-rooted object: the application could have used it
   right up to the free, so death = free and drag = 0. *)
let free_while_rooted () =
  let r =
    run
      [
        (0, alloc ~addr:0 32);
        (1, Event.Root_add { addr = 0 });
        (9, free ~addr:0 32);
      ]
  in
  Alcotest.(check int) "death at free" 9 r.Oracle.r_objects.(0).Oracle.o_death;
  Alcotest.(check int) "zero drag" 0 (Log_hist.sum r.Oracle.r_drag)

(* A drops its root and is never freed: A leaks at the drop clock, and
   B — reachable only through A, never observed losing a reference —
   leaks conservatively at the end of the stream. Rooted C stays live. *)
let planted_leaks_found () =
  let r =
    run
      [
        (0, alloc ~addr:0 16);
        (1, Event.Root_add { addr = 0 });
        (2, alloc ~addr:64 16);
        (3, Event.Ptr_write { src = 0; field = 0; old_dst = -1; new_dst = 64 });
        (4, Event.Root_remove { addr = 0 });
        (5, alloc ~addr:128 24);
        (6, Event.Root_add { addr = 128 });
      ]
  in
  Alcotest.(check int) "two leaks" 2 (List.length r.Oracle.r_leaks);
  Alcotest.(check int) "one live" 1 r.Oracle.r_end_live;
  let deaths =
    List.sort compare (List.map (fun o -> o.Oracle.o_death) r.Oracle.r_leaks)
  in
  Alcotest.(check (list int)) "leak deaths" [ 4; r.Oracle.r_end_clock ] deaths;
  let diags = Oracle.leak_diags r in
  Alcotest.(check int) "one diag per leak" 2 (List.length diags);
  List.iter
    (fun d -> Alcotest.(check string) "rule id" "oracle-leak" d.Diag.rule_id)
    diags

(* No graph events: the oracle degrades soundly — death equals the
   explicit free, zero drag, and live-at-end objects are not leaks. *)
let degenerate_stream_is_clean () =
  let r =
    run
      [
        (0, alloc ~addr:0 16);
        (1, alloc ~addr:64 48);
        (2, free ~addr:0 16);
        (3, alloc ~addr:0 8);
      ]
  in
  Alcotest.(check bool) "degenerate" false r.Oracle.r_graph;
  Alcotest.(check int) "no leaks" 0 (List.length r.Oracle.r_leaks);
  Alcotest.(check int) "live at end" 2 r.Oracle.r_end_live;
  Alcotest.(check int) "freed death = free" 2 r.Oracle.r_objects.(0).Oracle.o_death;
  Alcotest.(check int) "zero drag" 0 (Log_hist.sum r.Oracle.r_drag)

(* The GC-heap generator end to end: a lagged-refcount client produces
   a defect-free graph stream whose synthesized frees form a valid
   trace with matching alloc/free counts. *)
let gcheap_differential () =
  let config =
    { Gcheap.default_config with Gcheap.nodes_per_phase = 150; free_lag = Some 20 }
  in
  let r, stats = Scenario.gcheap_oracle ~config Scenario.lea in
  Alcotest.(check int) "defect-free" 0 (Oracle.defect_count r.Oracle.r_defects);
  Alcotest.(check int) "allocs" stats.Gcheap.g_allocs (Array.length r.Oracle.r_objects);
  Alcotest.(check int) "frees" stats.Gcheap.g_frees r.Oracle.r_freed;
  let trace = Oracle.synthesize r in
  (match Trace.validate trace with
  | Ok () -> ()
  | Error m -> Alcotest.failf "synthesized trace invalid: %s" m);
  Alcotest.(check int) "synthesized allocs" stats.Gcheap.g_allocs
    (Trace.alloc_count trace);
  (* Every dead object gets a synthesized free; only end-live survive. *)
  Alcotest.(check int) "synthesized frees"
    (Array.length r.Oracle.r_objects - r.Oracle.r_end_live)
    (Trace.free_count trace)

(* ------------------------------------------------------------------ *)
(* random coherent mutator scripts                                     *)

(* A client-side mirror of the object graph, so every generated script
   is coherent: old_dst always matches the tracked slot, roots never
   underflow, and frees null in-edges first. The oracle must report
   zero defects on these. *)
type gobj = {
  ga_addr : int;
  ga_payload : int;
  mutable ga_roots : int;
  ga_fields : int array;
}

type gstate = {
  mutable clock : int;
  mutable next_addr : int;
  mutable live : gobj list;  (* pickable: excludes planted leaks *)
  mutable script : (int * Event.t) list;  (* reversed *)
  mutable planted : int list;  (* addrs of planted leaks *)
  mutable phase : int;
}

let emit st ev =
  st.script <- (st.clock, ev) :: st.script;
  st.clock <- st.clock + 1

let g_alloc rng st =
  let payload = 8 * (1 + Random.State.int rng 64) in
  let addr = st.next_addr in
  st.next_addr <- addr + 4096;
  let o = { ga_addr = addr; ga_payload = payload; ga_roots = 0; ga_fields = Array.make 4 (-1) } in
  emit st (alloc ~addr payload);
  (* Root it so it is reachable until the script decides otherwise. *)
  emit st (Event.Root_add { addr });
  o.ga_roots <- 1;
  st.live <- o :: st.live

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

let g_ptr_write rng st =
  match pick rng st.live with
  | None -> ()
  | Some src ->
    let field = Random.State.int rng (Array.length src.ga_fields) in
    let old_dst = src.ga_fields.(field) in
    let new_dst =
      if Random.State.bool rng then -1
      else match pick rng st.live with None -> -1 | Some d -> d.ga_addr
    in
    if old_dst <> new_dst then begin
      src.ga_fields.(field) <- new_dst;
      emit st (Event.Ptr_write { src = src.ga_addr; field; old_dst; new_dst })
    end

let g_root rng st =
  match pick rng st.live with
  | None -> ()
  | Some o ->
    if o.ga_roots > 0 && Random.State.bool rng then begin
      o.ga_roots <- o.ga_roots - 1;
      emit st (Event.Root_remove { addr = o.ga_addr })
    end
    else begin
      o.ga_roots <- o.ga_roots + 1;
      emit st (Event.Root_add { addr = o.ga_addr })
    end

(* Null every tracked slot referencing [x] (its own included), then
   free it — the stream never carries a dangling tracked pointer. *)
let g_free_obj st x =
  List.iter
    (fun o ->
      Array.iteri
        (fun field dst ->
          if dst = x.ga_addr then begin
            o.ga_fields.(field) <- -1;
            emit st
              (Event.Ptr_write
                 { src = o.ga_addr; field; old_dst = dst; new_dst = -1 })
          end)
        o.ga_fields)
    st.live;
  emit st (free ~addr:x.ga_addr x.ga_payload);
  st.live <- List.filter (fun o -> o != x) st.live

let g_free rng st =
  match pick rng st.live with None -> () | Some x -> g_free_obj st x

let g_plant_leak rng st =
  let payload = 8 * (1 + Random.State.int rng 16) in
  let addr = st.next_addr in
  st.next_addr <- addr + 4096;
  emit st (alloc ~addr payload);
  emit st (Event.Root_add { addr });
  emit st (Event.Root_remove { addr });
  st.planted <- addr :: st.planted

let gen_script ~seed ~steps ~leaks ~drain =
  let rng = Random.State.make [| seed |] in
  let st =
    { clock = 0; next_addr = 0; live = []; script = []; planted = []; phase = 0 }
  in
  let leak_at =
    (* Spread the planted leaks across the script. *)
    Array.init leaks (fun i -> (i + 1) * steps / (leaks + 1))
  in
  for i = 0 to steps - 1 do
    if Array.exists (fun j -> j = i) leak_at then g_plant_leak rng st;
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> g_alloc rng st
    | 3 | 4 -> g_ptr_write rng st
    | 5 | 6 -> g_root rng st
    | 7 | 8 -> g_free rng st
    | _ ->
      if Random.State.int rng 8 = 0 then begin
        st.phase <- st.phase + 1;
        emit st (Event.Phase st.phase)
      end
      else g_alloc rng st
  done;
  if drain then while st.live <> [] do g_free_obj st (List.hd st.live) done;
  (List.rev st.script, st.planted)

let gen_params =
  QCheck.make
    ~print:(fun (seed, steps, leaks, drain) ->
      Printf.sprintf "seed=%d steps=%d leaks=%d drain=%b" seed steps leaks drain)
    QCheck.Gen.(
      map
        (fun ((seed, steps), (leaks, drain)) -> (seed, steps, leaks, drain))
        (pair (pair (0 -- 10_000) (10 -- 200)) (pair (0 -- 5) bool)))

(* Soundness: birth <= death <= horizon for every object, drag counted
   once per freed object, scripts are defect-free, and a leak is never
   an explicitly freed or still-reachable object. *)
let prop_soundness =
  QCheck.Test.make ~name:"oracle soundness (birth <= death <= free, drag >= 0)"
    ~count:200 gen_params (fun (seed, steps, leaks, drain) ->
      let stream, _ = gen_script ~seed ~steps ~leaks ~drain in
      let r = run stream in
      if Oracle.defect_count r.Oracle.r_defects <> 0 then
        QCheck.Test.fail_reportf "coherent script produced %d defects"
          (Oracle.defect_count r.Oracle.r_defects);
      Array.iter
        (fun o ->
          let horizon =
            match o.Oracle.o_free with Some f -> f | None -> r.Oracle.r_end_clock
          in
          if not (o.Oracle.o_birth <= o.Oracle.o_death && o.Oracle.o_death <= horizon)
          then
            QCheck.Test.fail_reportf "object #%d: birth %d death %d horizon %d"
              o.Oracle.o_id o.Oracle.o_birth o.Oracle.o_death horizon)
        r.Oracle.r_objects;
      List.iter
        (fun o ->
          if o.Oracle.o_free <> None || o.Oracle.o_reached then
            QCheck.Test.fail_reportf "leak #%d is freed or reachable" o.Oracle.o_id)
        r.Oracle.r_leaks;
      Log_hist.count r.Oracle.r_drag = r.Oracle.r_freed)

(* Planted leaks are found exactly: every planted address leaks, and
   with [drain] the planted set is the whole leak report. *)
let prop_planted_leaks =
  QCheck.Test.make ~name:"planted leaks detected exactly" ~count:100 gen_params
    (fun (seed, steps, leaks, _drain) ->
      let stream, planted = gen_script ~seed ~steps ~leaks ~drain:true in
      let r = run stream in
      let reported =
        List.sort compare (List.map (fun o -> o.Oracle.o_addr) r.Oracle.r_leaks)
      in
      reported = List.sort compare planted)

(* The oracle fed from a decoded JSONL stream, one entry at a time, is
   the oracle fed from memory: identical objects, identical summary,
   identical drag histograms. *)
let prop_incremental_is_batch =
  QCheck.Test.make ~name:"incremental feed = batch run" ~count:100 gen_params
    (fun (seed, steps, leaks, drain) ->
      let stream, _ = gen_script ~seed ~steps ~leaks ~drain in
      let batch = run stream in
      let text =
        String.concat "\n" (List.map (fun (clock, ev) -> Event.to_json ~clock ev) stream)
      in
      let t = Oracle.create () in
      (match Stream.iter_source (Stream.source_of_string text) ~f:(Oracle.feed t) with
      | Ok _ -> ()
      | Error m -> QCheck.Test.fail_report m);
      let inc = Oracle.finalize t in
      let hist_eq a b =
        Log_hist.count a = Log_hist.count b
        && Log_hist.sum a = Log_hist.sum b
        && Log_hist.max_value a = Log_hist.max_value b
      in
      batch.Oracle.r_objects = inc.Oracle.r_objects
      && batch.Oracle.r_events = inc.Oracle.r_events
      && batch.Oracle.r_graph_events = inc.Oracle.r_graph_events
      && batch.Oracle.r_freed = inc.Oracle.r_freed
      && batch.Oracle.r_end_live = inc.Oracle.r_end_live
      && batch.Oracle.r_end_clock = inc.Oracle.r_end_clock
      && batch.Oracle.r_leaks = inc.Oracle.r_leaks
      && batch.Oracle.r_defects = inc.Oracle.r_defects
      && hist_eq batch.Oracle.r_drag inc.Oracle.r_drag
      && List.for_all2
           (fun (ka, ha) (kb, hb) -> ka = kb && hist_eq ha hb)
           batch.Oracle.r_drag_by_class inc.Oracle.r_drag_by_class
      && List.for_all2
           (fun (ka, ha) (kb, hb) -> ka = kb && hist_eq ha hb)
           batch.Oracle.r_drag_by_phase inc.Oracle.r_drag_by_phase)

let tests =
  ( "oracle",
    [
      Alcotest.test_case "exact death times" `Quick exact_death_times;
      Alcotest.test_case "free while rooted" `Quick free_while_rooted;
      Alcotest.test_case "planted leaks found" `Quick planted_leaks_found;
      Alcotest.test_case "degenerate stream is clean" `Quick
        degenerate_stream_is_clean;
      Alcotest.test_case "gcheap differential" `Quick gcheap_differential;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_soundness; prop_planted_leaks; prop_incremental_is_batch ] )
