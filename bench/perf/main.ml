(* dmm performance benchmark.

     main.exe --workload W --seed N [--seconds S] [--trace 0|1]
     main.exe smoke --dmm PATH --benchmark BENCHMARK.json
     main.exe compare --benchmark BENCHMARK.json PARENT_DIR CHANGE_DIR

   A run sets the workload up several times (in fresh child processes,
   then once for itself) and reports the median set-up, then measures timed
   iterations for about S seconds, checks every output, and prints one
   JSON object as its last line: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1. A traced run alternates untraced
   and traced iterations, runs the per-layer suite, and writes the spans
   as a Chrome trace. See README.md for the metrics and the workloads. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* Sockets, daemon output, traces and smoke-run outputs. *)
let run_dir = ".bench_run"
let make_run_dir () = try Unix.mkdir run_dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()

let json_result ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ( "metrics",
        Json.Obj (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* one workload run                                                    *)

(* A cold set-up in a fresh process: the child runs the set-up only and
   reports "setup <seconds> <warmup-iteration seconds>". *)
let child_setup argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name (Array.append argv [| "--setup-only" |]) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "cold set-up child failed");
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | last :: _ -> Scanf.sscanf last "setup %f %f" (fun s w -> (s, w))
  | [] -> die "cold set-up child printed nothing"

let steal_share (i : Workloads.iteration) =
  let busy, _, steal = i.machine in
  if busy +. steal > 0.0 then steal /. (busy +. steal) else 0.0

(* The iterations the hypervisor disturbed least. Steal (CPU time the
   virtual machine wanted but was not given) only ever slows an iteration
   down, so one measured during a burst of steal says more about the
   neighbours than about the code: iterations whose steal share exceeds
   the least-disturbed one's by more than two points are set aside. *)
let least_disturbed its =
  let best = List.fold_left (fun acc i -> Float.min acc (steal_share i)) 1.0 its in
  List.filter (fun i -> steal_share i <= best +. 0.02) its

let per_event (secs, events) = secs *. 1e9 /. float_of_int (max 1 events)

(* Quantile [q] over every task of [its] of the task's time per event. *)
let task_quantile q its =
  Measure.quantile q (List.concat_map (fun (i : Workloads.iteration) -> List.map per_event i.tasks) its)

let e2e (rep : Workloads.report) setup_samples =
  let kept = least_disturbed rep.untraced in
  let med f = Measure.median (List.map f kept) in
  Printf.printf "setup: %d samples; iterations: %d, %d kept; tasks: %d\n" (List.length setup_samples)
    (List.length rep.untraced) (List.length kept)
    (List.fold_left (fun acc (i : Workloads.iteration) -> acc + List.length i.tasks) 0 kept);
  List.iter
    (fun (i : Workloads.iteration) ->
      Printf.printf "  iteration: %d events, wall %.4f s, cpu %.4f s, steal share %.3f\n" i.events i.wall_s i.cpu_s
        (steal_share i))
    rep.untraced;
  [
    ("setup_s", Measure.median setup_samples, "s");
    ("events_per_s", med (fun i -> float_of_int i.events /. i.wall_s), "ev/s");
    ("cpu_ns_per_event", med (fun i -> per_event (i.cpu_s, i.events)), "ns");
    ("task_p50_ns_per_event", task_quantile 0.5 kept, "ns");
  ]

let per_layer ctx (rep : Workloads.report) =
  let wall its = Measure.median (List.map (fun (i : Workloads.iteration) -> i.wall_s) its) in
  let coverage =
    Measure.median
      (List.filter_map
         (fun (i : Workloads.iteration) -> Option.map (Spans.coverage ~lanes:rep.lanes) i.root)
         rep.traced)
  in
  let mev = float_of_int rep.gc_events /. 1e6 in
  let suite = Spans.recording (fun () -> Layers.run ctx) in
  suite
  @ [
      ("accounting.coverage", coverage, "ratio");
      ("trace.overhead_pct", 100.0 *. ((wall rep.traced /. wall rep.untraced) -. 1.0), "%");
      ("gc.minor_collections_per_mev", float_of_int rep.gc.minor_collections /. mev, "count");
      ("gc.major_collections_per_mev", float_of_int rep.gc.major_collections /. mev, "count");
      ("gc.minor_words_per_event", rep.gc.minor_words /. (mev *. 1e6), "words");
      ("task.p90_ns_per_event", task_quantile 0.9 (least_disturbed rep.untraced), "ns");
      ("rss.peak_mb", rep.peak_rss_mb, "MiB");
      ("machine.steal_share", Measure.median (List.map steal_share (rep.untraced @ rep.traced)), "ratio");
    ]

let run_workload ~workload ~seed ~seconds ~trace ~smoke ~dmm ~trace_file ~setup_only =
  if not (List.mem workload Workloads.names) then
    die "unknown workload %S (one of: %s)" workload (String.concat ", " Workloads.names);
  if not (Sys.file_exists dmm) then die "dmm binary not found: %s" dmm;
  make_run_dir ();
  Dmm_engine.Pool.set_jobs 2;
  let argv =
    [|
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--dmm"; dmm; "--scale"; (if smoke then "smoke" else "paper");
    |]
  in
  let cold =
    if setup_only || trace || smoke then [] else List.init (Workloads.cold_setups workload) (fun _ -> child_setup argv)
  in
  let round_estimate = match cold with [] -> None | c -> Some (Measure.median (List.map snd c)) in
  let ctx = { Workloads.seed; seconds; smoke; dmm; dir = run_dir; round_estimate } in
  let mode = if setup_only then Workloads.Setup_only else if trace then Workloads.Traced else Workloads.Timed in
  let rep = Workloads.run workload ctx mode in
  if setup_only then begin
    if rep.failures <> [] then die "set-up failed: %s" (List.hd rep.failures);
    Printf.printf "setup %.17g %.17g\n" rep.setup_s rep.warm_s;
    exit 0
  end;
  let metrics =
    if trace then begin
      let m = per_layer ctx rep in
      Spans.write_chrome trace_file;
      Printf.printf "trace: wrote %s\n" trace_file;
      m
    end
    else e2e rep (rep.setup_s :: List.map fst cold)
  in
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  let failures = rep.failures @ List.map (fun (n, _, _) -> n ^ " is not a finite number") bad in
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
  List.iter (fun (n, v, u) -> Printf.printf "%-44s %16.6g %s\n" n v u) metrics;
  let metrics = List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u)) metrics in
  let correct = failures = [] in
  print_endline
    (Json.to_string
       (json_result ~correct ~attempted:rep.attempted ~failed:(List.length failures) metrics));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)

let load_json path =
  match Json.parse (Measure.read_file path) with
  | Ok j -> j
  | Error m -> die "%s: %s" path m
  | exception Sys_error m -> die "%s" m

(* (name, unit, better, bound) of each metric in one section. *)
let metric_specs bench section =
  match Json.member section bench with
  | None -> die "BENCHMARK.json has no %s" section
  | Some l ->
    List.map
      (fun m ->
        let str k = Option.fold ~none:"" ~some:Json.to_string_exn (Json.member k m) in
        let bound = Option.fold ~none:nan ~some:Json.to_float_exn (Json.member "bound" m) in
        (str "name", str "unit", str "better", bound))
      (Json.to_list_exn l)

(* The last non-empty line of a run's output: its result object. *)
let result_of_output path text =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text)) with
  | last :: _ -> (
    match Json.parse last with Ok j -> j | Error m -> die "%s: last line is not a result: %s" path m)
  | [] -> die "%s: empty" path

let metric_value result name =
  Option.bind (Json.member "metrics" result) (Json.member name)
  |> Option.map (fun m ->
         ( Json.to_float_exn (Option.get (Json.member "value" m)),
           Json.to_string_exn (Option.get (Json.member "unit" m)) ))

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)

(* Chrome B/E events balance per track, and no end precedes its begin. *)
let balanced_chrome path =
  let events = Option.map Json.to_list_exn (Json.member "traceEvents" (load_json path)) in
  let depth = Hashtbl.create 8 in
  let ok = ref true in
  List.iter
    (fun e ->
      let field k = Json.member k e in
      let tid = Option.fold ~none:0.0 ~some:Json.to_float_exn (field "tid") in
      let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
      match Option.map Json.to_string_exn (field "ph") with
      | Some "B" -> Hashtbl.replace depth tid (d + 1)
      | Some "E" ->
        if d = 0 then ok := false;
        Hashtbl.replace depth tid (d - 1)
      | _ -> ())
    (Option.value ~default:[] events);
  !ok && events <> None && Hashtbl.length depth > 0 && Hashtbl.fold (fun _ d acc -> acc && d = 0) depth true

let smoke ~dmm ~benchmark =
  let bench = load_json benchmark in
  let t0 = Measure.now_ns () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  make_run_dir ();
  (* Longest first (traced before untraced, table1 first), so the pair
     of slots finishes together. *)
  let runs = List.concat_map (fun w -> [ (w, true); (w, false) ]) Workloads.names in
  let files (w, trace) =
    let base = Printf.sprintf "%s/smoke-%s-%d" run_dir w (Bool.to_int trace) in
    (base ^ ".out", base ^ ".json")
  in
  let start ((w, trace) as run) =
    let out, trace_file = files run in
    let fd = Unix.openfile out [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
    let argv =
      [|
        Sys.executable_name; "--workload"; w; "--seed"; "42"; "--seconds"; "0"; "--trace";
        (if trace then "1" else "0"); "--scale"; "smoke"; "--dmm"; dmm; "--trace-file"; trace_file;
      |]
    in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin fd Unix.stderr in
    Unix.close fd;
    (pid, run)
  in
  let check ((w, trace) as run) status =
    let out, trace_file = files run in
    let text = Measure.read_file out in
    let label = Printf.sprintf "%s --trace %d" w (Bool.to_int trace) in
    if status <> Unix.WEXITED 0 then problem "%s: exited non-zero:\n%s" label text
    else begin
      let result = result_of_output label text in
      if Json.member "correct" result <> Some (Json.Bool true) then problem "%s: not correct" label;
      List.iter
        (fun (name, unit, _, _) ->
          match metric_value result name with
          | None -> problem "%s: metric %s missing" label name
          | Some (_, u) when u <> unit -> problem "%s: metric %s in %s, expected %s" label name u unit
          | Some _ -> ())
        (metric_specs bench (if trace then "per_layer" else "end_to_end"));
      if trace && not (balanced_chrome trace_file) then problem "%s: unbalanced Chrome trace" label
    end
  in
  (* Two runs at a time: most of a run is sequential, so the pair keeps
     both cores busy without either run needing the machine alone. *)
  let rec drive pending running =
    match (pending, running) with
    | [], [] -> ()
    | r :: rest, _ when List.length running < 2 -> drive rest (start r :: running)
    | _ ->
      let pid, status = Unix.wait () in
      check (List.assoc pid running) status;
      drive pending (List.remove_assoc pid running)
  in
  drive runs [];
  match !problems with
  | [] -> Printf.printf "smoke: ok, %d runs in %.1f s\n" (List.length runs) (Measure.seconds_since t0)
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

(* Result files of one side, grouped by workload: a file named
   "<workload>-<anything>" holds one run's output (its last line is the
   result). Files of a side are paired with the other side's by name
   order, so runs made alternately line up as pairs. *)
let side dir =
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  List.map
    (fun w ->
      ( w,
        List.filter_map
          (fun f ->
            if String.starts_with ~prefix:(w ^ "-") f then
              let path = Filename.concat dir f in
              Some (result_of_output path (Measure.read_file path))
            else None)
          files ))
    Workloads.names

let compare_dirs ~benchmark parent_dir change_dir =
  let bench = load_json benchmark in
  let specs = metric_specs bench "end_to_end" in
  let parent = side parent_dir and change = side change_dir in
  let regressed = ref false in
  Printf.printf "%-13s %-22s %12s %25s %12s %25s %5s  %s\n" "workload" "metric" "parent" "[q1, q3]" "change"
    "[q1, q3]" "wins" "verdict";
  List.iter
    (fun w ->
      let p = List.assoc w parent and c = List.assoc w change in
      if p <> [] || c <> [] then begin
        if List.length p < 5 || List.length c < 5 then
          die "%s: %d parent and %d change results, need at least 5 of each" w (List.length p) (List.length c);
        List.iter
          (fun (name, _, better, bound) ->
            let values rs =
              List.map (fun r -> match metric_value r name with Some (v, _) -> v | None -> die "%s: no %s" w name) rs
            in
            let v = Verdict.judge ~better ~bound (values p) (values c) in
            if v.verdict = "regressed" then regressed := true;
            let q1, q3 = v.parent_quartiles and c1, c3 = v.change_quartiles in
            Printf.printf "%-13s %-22s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %5.2f  %s\n" w name
              v.parent_median q1 q3 v.change_median c1 c3 v.win_fraction v.verdict)
          specs
      end)
    Workloads.names;
  if !regressed then exit 1

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* No daemon outlives the run, however it ends. *)
  at_exit Serve_load.kill_all;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigint; Sys.sigterm ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref "paper" and dmm = ref "" and trace_file = ref "" and setup_only = ref false in
  let benchmark = ref "BENCHMARK.json" and anon = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  table1, explore, ingest-large or ingest-small");
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  1 runs the traced run and prints the per-layer metrics");
      ("--trace-file", Arg.Set_string trace_file, "FILE  Chrome trace of the traced run");
      ("--scale", Arg.Set_string scale, "paper|smoke  smoke: quick-scale inputs, fewest iterations");
      ("--dmm", Arg.Set_string dmm, "PATH  the dmm executable (the daemon under test)");
      ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json (smoke and compare)");
      ("--setup-only", Arg.Set setup_only, " run the set-up alone (cold set-up child)");
    ]
  in
  let usage = "main.exe [smoke | compare PARENT_DIR CHANGE_DIR] [options]" in
  (try Arg.parse_argv Sys.argv spec (fun a -> anon := a :: !anon) usage with
  | Arg.Bad m -> die "%s" (List.hd (String.split_on_char '\n' m))
  | Arg.Help m ->
    print_string m;
    exit 0);
  if !scale <> "paper" && !scale <> "smoke" then die "--scale must be paper or smoke";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let need_dmm () = if !dmm = "" then die "--dmm PATH is required" in
  match List.rev !anon with
  | [ "smoke" ] ->
    need_dmm ();
    smoke ~dmm:!dmm ~benchmark:!benchmark
  | [ "compare"; p; c ] -> compare_dirs ~benchmark:!benchmark p c
  | [] ->
    need_dmm ();
    if !workload = "" then die "--workload is required";
    let trace_file =
      if !trace_file <> "" then !trace_file else Printf.sprintf "%s/trace-%s-%d.json" run_dir !workload !seed
    in
    (try
       run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
         ~smoke:(!scale = "smoke") ~dmm:!dmm ~trace_file ~setup_only:!setup_only
     with
    | Failure m | Sys_error m | Invalid_argument m -> die "%s" m
    | Unix.Unix_error (e, f, a) -> die "%s %s: %s" f a (Unix.error_message e))
  | _ -> die "usage: %s" usage
