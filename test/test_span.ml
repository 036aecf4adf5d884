(* The self-tracer's structural contracts: spans nest by construction
   (parent/depth follow the dynamic call tree per domain), recording
   survives exceptions, and the Chrome export is balanced — every ph:"B"
   has a matching ph:"E" with proper per-tid nesting — even for span
   forests recorded concurrently from several domains. *)

module Span = Dmm_obs.Span
module Chrome_sink = Dmm_obs.Chrome_sink

(* Every test installs its own ambient tracer; always uninstall so a
   failure can't leak tracing into unrelated tests. *)
let with_tracer f =
  let t = Span.create () in
  Span.set_ambient (Some t);
  Fun.protect ~finally:(fun () -> Span.set_ambient None) (fun () -> f t)

let span_named spans name =
  match List.find_opt (fun (s : Span.span) -> s.sp_name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %S not recorded" name

let unit_tests =
  [
    Alcotest.test_case "no ambient tracer is a passthrough" `Quick (fun () ->
        Span.set_ambient None;
        Alcotest.(check bool) "disabled" false (Span.enabled ());
        Alcotest.(check int) "value" 42 (Span.with_span "ignored" (fun () -> 42)));
    Alcotest.test_case "nesting records parent and depth" `Quick (fun () ->
        let spans =
          with_tracer (fun t ->
              Span.with_span "a" (fun () ->
                  Span.with_span ~args:[ ("k", 7) ] "b" (fun () ->
                      Span.with_span "c" ignore);
                  Span.with_span "d" ignore);
              Span.spans t)
        in
        Alcotest.(check int) "count" 4 (List.length spans);
        let a = span_named spans "a"
        and b = span_named spans "b"
        and c = span_named spans "c"
        and d = span_named spans "d" in
        Alcotest.(check int) "a is root" (-1) a.sp_parent;
        Alcotest.(check int) "a depth" 0 a.sp_depth;
        Alcotest.(check int) "b under a" a.sp_seq b.sp_parent;
        Alcotest.(check int) "c under b" b.sp_seq c.sp_parent;
        Alcotest.(check int) "d under a" a.sp_seq d.sp_parent;
        Alcotest.(check int) "d depth" 1 d.sp_depth;
        Alcotest.(check (list (pair string int))) "args" [ ("k", 7) ] b.sp_args;
        List.iter
          (fun (s : Span.span) ->
            if s.sp_end_us < s.sp_start_us then
              Alcotest.failf "span %S ends before it starts" s.sp_name)
          spans);
    Alcotest.test_case "spans are recorded on exceptions" `Quick (fun () ->
        let spans =
          with_tracer (fun t ->
              (match
                 Span.with_span "outer" (fun () ->
                     Span.with_span "boom" (fun () -> raise Exit))
               with
              | () -> Alcotest.fail "exception swallowed"
              | exception Exit -> ());
              (* The stack must be clean again: a sibling recorded after
                 the raise parents under nothing, not under "outer". *)
              Span.with_span "after" ignore;
              Span.spans t)
        in
        Alcotest.(check int) "count" 3 (List.length spans);
        let outer = span_named spans "outer" in
        let boom = span_named spans "boom" in
        let after = span_named spans "after" in
        Alcotest.(check int) "boom under outer" outer.sp_seq boom.sp_parent;
        Alcotest.(check int) "after is root" (-1) after.sp_parent);
    Alcotest.test_case "root_us counts home-domain roots only" `Quick (fun () ->
        with_tracer (fun t ->
            Span.with_span "home" (fun () ->
                let d =
                  Domain.spawn (fun () -> Span.with_span "worker-root" ignore)
                in
                Domain.join d);
            let home = span_named (Span.spans t) "home" in
            Alcotest.(check int) "coverage = home root only"
              (home.sp_end_us - home.sp_start_us)
              (Span.root_us t)));
  ]

(* ------------------------------------------------------------------ *)
(* Chrome export balance, checked from the written file.               *)

(* One event per line in [write_file] output; pull out ph, tid and name
   with string scans (the repo carries no JSON parser on purpose). *)
let find_sub hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > hn then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let field_string line key =
  let pat = Printf.sprintf "\"%s\":\"" key in
  match find_sub line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let j = ref start in
    while !j < String.length line && line.[!j] <> '"' do
      incr j
    done;
    Some (String.sub line start (!j - start))

let field_int line key =
  let pat = Printf.sprintf "\"%s\":" key in
  match find_sub line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let j = ref start in
    while
      !j < String.length line
      && (line.[!j] = '-' || (line.[!j] >= '0' && line.[!j] <= '9'))
    do
      incr j
    done;
    if !j = start then None else Some (int_of_string (String.sub line start (!j - start)))

type chrome_ev = { ev_ph : string; ev_tid : int; ev_ts : int; ev_name : string }

let read_chrome_events path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let evs = ref [] in
  (try
     while true do
       let line = input_line ic in
       match (field_string line "ph", field_int line "tid") with
       | Some (("B" | "E") as ph), Some tid ->
         let ts = Option.value ~default:(-1) (field_int line "ts") in
         let name = Option.value ~default:"" (field_string line "name") in
         evs := { ev_ph = ph; ev_tid = tid; ev_ts = ts; ev_name = name } :: !evs
       | _ -> ()
     done
   with End_of_file -> ());
  List.rev !evs

(* Walk each tid's event sequence with a stack: E must match the latest
   open B, timestamps never go backwards, everything closes. Returns the
   (name, depth-at-open) multiset seen on the way for comparison against
   the recorded span tree. *)
let check_balanced evs =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let last_ts : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let opened = ref [] in
  let stack_for tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks tid s;
      Hashtbl.replace last_ts tid (ref 0);
      s
  in
  List.iter
    (fun e ->
      let st = stack_for e.ev_tid in
      let lt = Hashtbl.find last_ts e.ev_tid in
      if e.ev_ts < !lt then
        Alcotest.failf "tid %d: timestamp %d after %d" e.ev_tid e.ev_ts !lt;
      lt := e.ev_ts;
      match e.ev_ph with
      | "B" ->
        opened := (e.ev_name, List.length !st) :: !opened;
        st := e.ev_name :: !st
      | _ -> (
        match !st with
        | [] -> Alcotest.failf "tid %d: E with no open B" e.ev_tid
        | _ :: rest -> st := rest))
    evs;
  Hashtbl.iter
    (fun tid st ->
      if !st <> [] then
        Alcotest.failf "tid %d: %d spans left open" tid (List.length !st))
    stacks;
  List.sort compare !opened

let export_and_check t =
  let sink = Chrome_sink.create ~name:"test" ~pid:1 in
  Span.to_chrome t sink;
  Temp_file.with_fresh_path @@ fun path ->
  Chrome_sink.write_file path [ sink ];
  let evs = read_chrome_events path in
  let b = List.length (List.filter (fun e -> e.ev_ph = "B") evs) in
  let e = List.length (List.filter (fun e -> e.ev_ph = "E") evs) in
  Alcotest.(check int) "B count = span count" (Span.span_count t) b;
  Alcotest.(check int) "E count = B count" b e;
  let opened = check_balanced evs in
  let recorded =
    List.sort compare
      (List.map (fun (s : Span.span) -> (s.sp_name, s.sp_depth)) (Span.spans t))
  in
  Alcotest.(check (list (pair string int)))
    "chrome nesting matches recorded tree" recorded opened

(* Interpret a list of small ints as a nesting program: n mod 3 = 0
   closes depth (sibling), otherwise nest one deeper, bounded so the
   tree stays shallow enough to read in a failure. *)
let rec run_tree prefix depth ops =
  match ops with
  | [] -> ()
  | n :: rest ->
    if depth >= 5 || n mod 3 = 0 then begin
      Span.with_span (Printf.sprintf "%s-leaf%d" prefix n) ignore;
      run_tree prefix depth rest
    end
    else begin
      let inside, after =
        let k = 1 + (n mod 4) in
        let rec split i acc = function
          | l when i = k -> (List.rev acc, l)
          | [] -> (List.rev acc, [])
          | x :: tl -> split (i + 1) (x :: acc) tl
        in
        split 0 [] rest
      in
      Span.with_span
        (Printf.sprintf "%s-node%d" prefix n)
        (fun () -> run_tree prefix (depth + 1) inside);
      run_tree prefix depth after
    end

let qcheck =
  [
    QCheck.Test.make ~name:"chrome export is balanced (single domain)" ~count:50
      QCheck.(list_of_size Gen.(0 -- 40) small_nat)
      (fun ops ->
        let t =
          with_tracer (fun t ->
              run_tree "s" 0 ops;
              t)
        in
        export_and_check t;
        true);
    QCheck.Test.make ~name:"chrome export is balanced (concurrent domains)" ~count:20
      QCheck.(pair (list_of_size Gen.(0 -- 20) small_nat) (1 -- 3))
      (fun (ops, workers) ->
        let t =
          with_tracer (fun t ->
              Span.with_span "orchestrate" (fun () ->
                  let domains =
                    Array.init workers (fun w ->
                        Domain.spawn (fun () ->
                            run_tree (Printf.sprintf "w%d" w) 0 ops))
                  in
                  run_tree "home" 0 ops;
                  Array.iter Domain.join domains);
              t)
        in
        export_and_check t;
        true);
  ]

let tests =
  ("span", unit_tests @ List.map QCheck_alcotest.to_alcotest qcheck)
