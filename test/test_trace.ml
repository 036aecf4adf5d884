module Trace = Dmm_trace.Trace
module Event = Dmm_trace.Event

let sample_events =
  [
    Event.Phase 0;
    Event.Alloc { id = 1; size = 100 };
    Event.Alloc { id = 2; size = 50 };
    Event.Free { id = 1 };
    Event.Phase 1;
    Event.Alloc { id = 3; size = 8 };
    Event.Free { id = 3 };
  ]

let check_build_and_query () =
  let t = Trace.of_list sample_events in
  Alcotest.(check int) "length" 7 (Trace.length t);
  Alcotest.(check int) "allocs" 3 (Trace.alloc_count t);
  Alcotest.(check int) "frees" 2 (Trace.free_count t);
  Alcotest.(check int) "live at end" 1 (Trace.live_at_end t);
  Alcotest.(check bool) "get" true (Trace.get t 1 = Event.Alloc { id = 1; size = 100 });
  Alcotest.check_raises "out of bounds" (Invalid_argument "Trace.get: index out of bounds")
    (fun () -> ignore (Trace.get t 7))

let check_growth () =
  let b = Trace.Builder.create () in
  for i = 1 to 5000 do
    Trace.Builder.add b (Event.Alloc { id = i; size = 1 })
  done;
  let t = Trace.Builder.build b in
  Alcotest.(check int) "survives a new chunk" 5000 (Trace.length t);
  Alcotest.(check bool) "last intact" true
    (Trace.get t 4999 = Event.Alloc { id = 5000; size = 1 })

let check_validate_good () =
  match Trace.validate (Trace.of_list sample_events) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let check_validate_double_alloc () =
  let t =
    Trace.of_list [ Event.Alloc { id = 1; size = 4 }; Event.Alloc { id = 1; size = 4 } ]
  in
  match Trace.validate t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double alloc accepted"

let check_validate_bad_free () =
  let t = Trace.of_list [ Event.Free { id = 1 } ] in
  (match Trace.validate t with Error _ -> () | Ok () -> Alcotest.fail "free of unknown accepted");
  let t2 =
    Trace.of_list
      [ Event.Alloc { id = 1; size = 4 }; Event.Free { id = 1 }; Event.Free { id = 1 } ]
  in
  match Trace.validate t2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double free accepted"

let check_event_lines () =
  List.iter
    (fun e ->
      match Event.of_line (Event.to_line e) with
      | Ok e' -> Alcotest.(check bool) "roundtrip" true (e = e')
      | Error msg -> Alcotest.fail msg)
    sample_events;
  (match Event.of_line "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Event.of_line "a 1 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zero size accepted"

let check_save_load () =
  let t = Trace.of_list sample_events in
  Temp_file.with_fresh_path (fun path ->
      Trace.save t path;
      match Trace.load path with
      | Error msg -> Alcotest.fail msg
      | Ok t' ->
        Alcotest.(check bool) "roundtrip" true (Trace.to_list t = Trace.to_list t'))

(* Bad input is an [Error] naming the file, never an exception: a missing
   file, a malformed line and a directory. *)
let check_load_errors () =
  let names_file path =
    match Trace.load path with
    | Ok _ -> Alcotest.failf "%s: accepted" path
    | Error msg ->
      let prefix = path ^ ": " in
      if not (String.starts_with ~prefix msg) then
        Alcotest.failf "%s: error %S does not name the file" path msg
  in
  let dir = Filename.temp_dir "dmm_trace" "" in
  let bad = Filename.concat dir "bad.trace" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists bad then Sys.remove bad;
      Sys.rmdir dir)
    (fun () ->
      names_file (Filename.concat dir "missing.trace");
      Out_channel.with_open_text bad (fun oc -> output_string oc "a 1 8\nzz\n");
      names_file bad;
      names_file dir)

(* Ids bound a replay's id array, so they must lie in [0, length]. *)
let check_validate_id_range () =
  let rejects events msg =
    Alcotest.(check (result unit string)) msg (Error msg) (Trace.validate (Trace.of_list events))
  in
  rejects
    [ Event.Alloc { id = -1; size = 16 }; Event.Free { id = -1 } ]
    "event 0: id -1 out of range";
  rejects [ Event.Alloc { id = 2; size = 16 } ] "event 0: id 2 out of range";
  rejects
    [ Event.Phase 0; Event.Alloc { id = max_int; size = 16 } ]
    (Printf.sprintf "event 1: id %d out of range" max_int);
  Alcotest.(check (result unit string)) "id = length" (Ok ())
    (Trace.validate
       (Trace.of_list [ Event.Alloc { id = 0; size = 8 }; Event.Alloc { id = 2; size = 8 } ]))

(* The bytes [dmm trace -o] writes for the first 400 events of a
   quick-scale DRR trace: the corpus the mutation property starts from. *)
let recorded =
  lazy
    (let t = Dmm_workloads.Scenario.drr_trace () in
     let t = Trace.of_list (List.filteri (fun i _ -> i < 400) (Trace.to_list t)) in
     Temp_file.with_fresh_path (fun path ->
         Trace.save t path;
         Temp_file.read path))

type mutation = Set of char | Insert of char | Delete

(* Bytes a trace line is made of, so a mutation often stays parseable
   and reaches [validate]; any other byte as well. *)
let gen_mutations =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (3, oneofl (List.of_seq (String.to_seq "0123456789 -afp\n"))); (1, map Char.chr (0 -- 255)) ]
  in
  list_size (1 -- 3)
    (pair (float_bound_exclusive 1.)
       (frequency
          [ (4, map (fun c -> Set c) byte); (2, map (fun c -> Insert c) byte); (1, return Delete) ]))

let show_mutation (at, m) =
  match m with
  | Set c -> Printf.sprintf "set %.4f %C" at c
  | Insert c -> Printf.sprintf "insert %.4f %C" at c
  | Delete -> Printf.sprintf "delete %.4f" at

let mutate data muts =
  List.fold_left
    (fun data (at, m) ->
      let n = String.length data in
      let i = int_of_float (at *. float_of_int n) in
      let before = String.sub data 0 i in
      match m with
      | Insert c -> before ^ String.make 1 c ^ String.sub data i (n - i)
      | Set c when i < n -> before ^ String.make 1 c ^ String.sub data (i + 1) (n - i - 1)
      | Delete when i < n -> before ^ String.sub data (i + 1) (n - i - 1)
      | Set _ | Delete -> data)
    data muts

(* Load then validate, as [dmm replay] does: never an exception, and an
   [Error] is one line that names the file. The seed is fixed, so a
   failure reproduces. *)
let prop_mutated_traces =
  QCheck.Test.make ~name:"mutated trace files fail on one line naming the file" ~count:300
    (QCheck.make ~print:(fun muts -> String.concat "; " (List.map show_mutation muts)) gen_mutations)
    (fun muts ->
      Temp_file.with_data (mutate (Lazy.force recorded) muts) (fun path ->
          let result =
            match Trace.load path with
            | exception e ->
              QCheck.Test.fail_reportf "Trace.load raised %s" (Printexc.to_string e)
            | Error msg -> Error msg
            | Ok t -> (
              match Trace.validate t with
              | exception e ->
                QCheck.Test.fail_reportf "Trace.validate raised %s" (Printexc.to_string e)
              | Ok () -> Ok ()
              | Error msg -> Error (path ^ ": " ^ msg))
          in
          match result with
          | Ok () -> true
          | Error msg ->
            String.starts_with ~prefix:(path ^ ": ") msg && not (String.contains msg '\n')))

(* The [Hashtbl] code the flat trace replaced, kept as its model: each
   function reads the event list. *)
module Model = struct
  let validate events =
    let len = List.length events in
    let seen = Hashtbl.create 256 and live = Hashtbl.create 256 in
    let rec go i = function
      | [] -> Ok ()
      | Event.Alloc { id; size } :: rest ->
        if size <= 0 then Error (Printf.sprintf "event %d: non-positive size" i)
        else if id < 0 || id > len then
          Error (Printf.sprintf "event %d: id %d out of range" i id)
        else if Hashtbl.mem seen id then
          Error (Printf.sprintf "event %d: id %d allocated twice" i id)
        else begin
          Hashtbl.replace seen id ();
          Hashtbl.replace live id ();
          go (i + 1) rest
        end
      | Event.Free { id } :: rest ->
        if not (Hashtbl.mem live id) then
          Error (Printf.sprintf "event %d: free of non-live id %d" i id)
        else begin
          Hashtbl.remove live id;
          go (i + 1) rest
        end
      | Event.Phase _ :: rest -> go (i + 1) rest
    in
    go 0 events

  let live_at_end events =
    let live = Hashtbl.create 256 in
    List.iter
      (function
        | Event.Alloc { id; _ } -> Hashtbl.replace live id ()
        | Event.Free { id } -> Hashtbl.remove live id
        | Event.Phase _ -> ())
      events;
    Hashtbl.length live

  (* A list of live ids. *)
  let peak_live_count events =
    List.fold_left
      (fun (live, peak) -> function
        | Event.Alloc { id; _ } ->
          let live = if List.mem id live then live else id :: live in
          (live, max peak (List.length live))
        | Event.Free { id } -> (List.filter (( <> ) id) live, peak)
        | Event.Phase _ -> (live, peak))
      ([], 0) events
    |> snd

  let alloc_count events =
    List.length
      (List.filter (function Event.Alloc _ -> true | Event.Free _ | Event.Phase _ -> false) events)

  let free_count events =
    List.length
      (List.filter (function Event.Free _ -> true | Event.Alloc _ | Event.Phase _ -> false) events)
end

let extremes = [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

(* Any event, with the ints a packed layout would lose: negative ids and
   sizes, zero, [min_int] and [max_int]. *)
let gen_any_event =
  QCheck.Gen.(
    let int = frequency [ (2, oneofl extremes); (2, small_signed_int); (1, int) ] in
    frequency
      [
        (4, map2 (fun id size -> Event.Alloc { id; size }) int int);
        (3, map (fun id -> Event.Free { id }) int);
        (1, map (fun p -> Event.Phase p) int);
      ])

(* Mostly-valid traces: small ids, so the live discipline holds for long
   stretches and breaks in every way [validate] reports. *)
let gen_small_events =
  QCheck.Gen.(
    let id = frequency [ (8, int_bound 40); (1, oneofl extremes) ] in
    let size = frequency [ (8, 1 -- 64); (1, oneofl [ 0; -1; min_int; max_int ]) ] in
    list_size (0 -- 120)
      (frequency
         [
           (5, map2 (fun id size -> Event.Alloc { id; size }) id size);
           (4, map (fun id -> Event.Free { id }) id);
           (1, map (fun p -> Event.Phase p) small_nat);
         ]))

(* Ids a byte map indexes: [peak_live_count] raises on the others. *)
let dense = function
  | Event.Alloc { id; _ } | Event.Free { id } -> id >= 0 && id <= 1000
  | Event.Phase _ -> true

let print_events es = String.concat "; " (List.map Event.to_line es)

let prop_flat_round_trip =
  QCheck.Test.make ~name:"flat storage round-trips every event" ~count:300
    (QCheck.make ~print:print_events QCheck.Gen.(list_size (0 -- 200) gen_any_event))
    (fun events ->
      let t = Trace.of_list events in
      (* Built one [add] at a time through a builder's chunks. *)
      let grown =
        let b = Trace.Builder.create () in
        List.iter (Trace.Builder.add b) events;
        Trace.Builder.build b
      in
      let visited = ref [] in
      Trace.iteri (fun i e -> visited := (i, e) :: !visited) t;
      let flat i =
        match Trace.kind t i with
        | Trace.Alloc -> Event.Alloc { id = Trace.id t i; size = Trace.size t i }
        | Trace.Free -> Event.Free { id = Trace.id t i }
        | Trace.Phase -> Event.Phase (Trace.id t i)
      in
      Trace.to_list t = events
      && Trace.to_list grown = events
      && Trace.length t = List.length events
      && List.rev !visited = List.mapi (fun i e -> (i, e)) events
      && List.for_all Fun.id (List.mapi (fun i e -> Trace.get t i = e && flat i = e) events))

let prop_matches_models =
  QCheck.Test.make ~name:"queries match the Hashtbl models" ~count:500
    (QCheck.make ~print:print_events gen_small_events)
    (fun events ->
      let t = Trace.of_list events in
      Trace.validate t = Model.validate events
      && Trace.live_at_end t = Model.live_at_end events
      && Trace.alloc_count t = Model.alloc_count events
      && Trace.free_count t = Model.free_count events
      && ((not (List.for_all dense events))
         || Trace.peak_live_count t = Model.peak_live_count events))

(* The live set's byte map grows straight to [id + 1]: an id past what a
   [Bytes.t] can index raises instead of doubling the size forever (it
   used to hang from 2^61 up). *)
let check_peak_live_huge_ids () =
  List.iter
    (fun id ->
      let t = Trace.of_list [ Event.Alloc { id; size = 8 }; Event.Free { id } ] in
      match Trace.peak_live_count t with
      | n -> Alcotest.failf "id %d: peak %d, expected Invalid_argument" id n
      | exception Invalid_argument _ -> ())
    [ max_int; 1 lsl 61; (1 lsl 61) - 1; Sys.max_string_length; -1; min_int ];
  Alcotest.(check int) "a large dense id still counts" 1
    (Trace.peak_live_count (Trace.of_list [ Event.Alloc { id = 100_000; size = 8 } ]))

(* [id_bound] against a naive maximum over the allocation ids, however
   the trace was built: event by event through a builder, [of_list], through
   the text format, or merged by [interleave] (which renumbers ids). *)
let naive_id_bound events =
  let ids = List.filter_map (function Event.Alloc { id; _ } -> Some id | _ -> None) events in
  match ids with
  | [] -> 0
  | id :: rest ->
    let m = List.fold_left Int.max id rest in
    if m < 0 then 0 else if m = max_int then max_int else m + 1

(* A source [interleave] accepts: frees only of ids it allocated. *)
let interleavable events =
  let allocated = Hashtbl.create 16 in
  List.filter
    (function
      | Event.Alloc { id; _ } ->
        Hashtbl.replace allocated id ();
        true
      | Event.Free { id } -> Hashtbl.mem allocated id
      | Event.Phase _ -> true)
    events

let prop_id_bound =
  QCheck.Test.make ~name:"id_bound matches a naive maximum" ~count:200
    (QCheck.make ~print:print_events QCheck.Gen.(list_size (0 -- 60) gen_any_event))
    (fun events ->
      let want = naive_id_bound events in
      let added =
        let b = Trace.Builder.create () in
        List.iter (Trace.Builder.add b) events;
        Trace.Builder.build b
      in
      let merged =
        Trace.interleave ~seed:3
          [ Trace.of_list (interleavable events); Trace.of_list (interleavable (List.rev events)) ]
      in
      (* The text format holds positive sizes only. *)
      let loadable =
        List.map (function Event.Alloc { id; _ } -> Event.Alloc { id; size = 8 } | e -> e) events
      in
      let loaded =
        Temp_file.with_fresh_path (fun path ->
            Trace.save (Trace.of_list loadable) path;
            match Trace.load path with Ok t -> Trace.id_bound t | Error m -> failwith m)
      in
      Trace.id_bound (Trace.of_list events) = want
      && Trace.id_bound added = want
      && loaded = want
      && Trace.id_bound merged = naive_id_bound (Trace.to_list merged))

(* Event [i] of an [n]-event trace at the chunk edges: allocations with
   ordinary, negative and [min_int] ids and extreme sizes, frees and
   phase markers; with [top], the last event allocates [max_int], which
   saturates [id_bound]. *)
let edge_events n ~top =
  List.init n (fun i ->
      if top && i = n - 1 then Event.Alloc { id = max_int; size = 1 }
      else
        match i mod 5 with
        | 0 -> Event.Alloc { id = i; size = i + 1 }
        | 1 -> Event.Alloc { id = min_int; size = max_int }
        | 2 -> Event.Free { id = -i }
        | 3 -> Event.Phase (i / 5)
        | _ -> Event.Alloc { id = -1; size = min_int })

(* A trace built through a builder's chunks holds what [of_list], which
   sizes its arrays exactly, holds: the same events, length, id bound and
   words, at every count around a chunk's edge. *)
let check_builder_chunk_edges () =
  let c = Dmm_util.Chunks.size in
  List.iter
    (fun (n, top) ->
      let events = edge_events n ~top in
      let b = Trace.Builder.create () in
      List.iter (Trace.Builder.add b) events;
      let built = Trace.Builder.build b and exact = Trace.of_list events in
      let label what = Printf.sprintf "%d events%s: %s" n (if top then " to max_int" else "") what in
      Alcotest.(check bool) (label "events") true (Trace.to_list built = events);
      Alcotest.(check int) (label "length") n (Trace.length built);
      Alcotest.(check int) (label "id_bound") (naive_id_bound events) (Trace.id_bound built);
      Alcotest.(check int) (label "id_bound of the exact trace") (Trace.id_bound exact)
        (Trace.id_bound built);
      Alcotest.(check int) (label "reachable words")
        (Obj.reachable_words (Obj.repr exact))
        (Obj.reachable_words (Obj.repr built));
      (* The trace is a copy: appending more leaves it as it was. *)
      Trace.Builder.add_phase b 7;
      Alcotest.(check bool) (label "unchanged by later appends") true (Trace.to_list built = events);
      Alcotest.(check bool) (label "the builder kept appending") true
        (Trace.to_list (Trace.Builder.build b) = events @ [ Event.Phase 7 ]))
    (List.concat_map
       (fun n -> (n, false) :: (if n > 0 then [ (n, true) ] else []))
       [ 0; 1; c - 1; c; c + 1; (3 * c) + 5 ])

let qcheck =
  let event_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun id size -> Event.Alloc { id; size = 1 + size }) nat small_nat;
          map (fun id -> Event.Free { id }) nat;
          map (fun p -> Event.Phase p) small_nat;
        ])
  in
  (* Few small ids make re-allocations of live ids and frees of non-live
     ids common; the large ones grow the live set's id map. *)
  let id_gen = QCheck.Gen.(frequency [ (4, int_bound 12); (1, int_bound 5000) ]) in
  let trace_gen =
    QCheck.Gen.(
      list_size (0 -- 300)
        (frequency
           [
             (5, map (fun id -> Event.Alloc { id; size = 8 }) id_gen);
             (4, map (fun id -> Event.Free { id }) id_gen);
             (1, map (fun p -> Event.Phase p) small_nat);
           ]))
  in
  (* The model: a list of live ids. *)
  let naive_peak events =
    List.fold_left
      (fun (live, peak) -> function
        | Event.Alloc { id; _ } ->
          let live = if List.mem id live then live else id :: live in
          (live, max peak (List.length live))
        | Event.Free { id } -> (List.filter (( <> ) id) live, peak)
        | Event.Phase _ -> (live, peak))
      ([], 0) events
    |> snd
  in
  [
    QCheck.Test.make ~name:"event line roundtrip" ~count:500 (QCheck.make event_gen)
      (fun e -> Event.of_line (Event.to_line e) = Ok e);
    QCheck.Test.make ~name:"peak_live_count matches a naive live set" ~count:300
      (QCheck.make ~print:(fun es -> String.concat "; " (List.map Event.to_line es)) trace_gen)
      (fun events -> Trace.peak_live_count (Trace.of_list events) = naive_peak events);
  ]

let tests =
  ( "trace",
    [
      Alcotest.test_case "build and query" `Quick check_build_and_query;
      Alcotest.test_case "growth" `Quick check_growth;
      Alcotest.test_case "validate accepts good traces" `Quick check_validate_good;
      Alcotest.test_case "validate rejects double alloc" `Quick check_validate_double_alloc;
      Alcotest.test_case "validate rejects bad frees" `Quick check_validate_bad_free;
      Alcotest.test_case "event line format" `Quick check_event_lines;
      Alcotest.test_case "save/load roundtrip" `Quick check_save_load;
      Alcotest.test_case "load errors name the file" `Quick check_load_errors;
      Alcotest.test_case "validate bounds ids" `Quick check_validate_id_range;
      Alcotest.test_case "peak_live_count raises on huge ids" `Quick check_peak_live_huge_ids;
      Alcotest.test_case "builder chunk edges match an exact trace" `Quick check_builder_chunk_edges;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 6 |]) prop_mutated_traces;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) prop_flat_round_trip;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |]) prop_matches_models;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |]) prop_id_bound;
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
