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
  let t = Trace.create () in
  for i = 1 to 5000 do
    Trace.add t (Event.Alloc { id = i; size = 1 })
  done;
  Alcotest.(check int) "survives resizing" 5000 (Trace.length t);
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
  let path = Filename.temp_file "dmm_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
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
  [
    QCheck.Test.make ~name:"event line roundtrip" ~count:500 (QCheck.make event_gen)
      (fun e -> Event.of_line (Event.to_line e) = Ok e);
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
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
