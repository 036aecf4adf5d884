(* The four workloads. Each runs in three steps: set-up (inputs from the
   seed, the daemon if the workload needs one, one untimed warmup
   iteration), timed iterations, output checks. The program under test
   only ever sees the generated inputs.

   table1        the paper-scale Table-1 grid, the work [dmm table1] does
   explore       the methodology's global design search on the three
                 paper-scale case studies
   ingest-large  [dmm serve] fed DRR-under-Lea streams (fit-scan heavy)
   ingest-small  [dmm serve] fed the other baselines' streams
                 (alloc/free heavy, many short connections) *)

module Experiments = Dmm_workloads.Experiments
module Scenario = Dmm_workloads.Scenario
module Explorer = Dmm_core.Explorer
module Profile = Dmm_core.Profile
module Allocator = Dmm_core.Allocator
module Trace = Dmm_trace.Trace
module Replay = Dmm_trace.Replay
module Profile_builder = Dmm_trace.Profile_builder
module Pool = Dmm_engine.Pool
module Sim = Dmm_engine.Sim

type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;  (** quick-scale inputs and the fewest iterations: the test-suite run *)
  dmm : string;
  dir : string;  (** where sockets, daemon output and temporary files go *)
  round_estimate : float option;
      (** seconds of one warmup iteration, measured by an earlier cold set-up *)
}

type mode = Setup_only | Timed | Traced

(* One timed unit of work: a Table-1 grid, one design search over the
   three case studies, or one round of streams through the daemon. *)
type iteration = {
  wall_s : float;
  cpu_s : float;
  events : int;
  tasks : (float * int) list;  (** seconds and events of each task: a cell, a case, a stream *)
  root : Spans.span option;  (** the iteration's span, in a traced iteration *)
  machine : float * float * float;  (** machine-wide busy, idle and steal seconds meanwhile *)
}

let machine_delta (b0, i0, s0) =
  let b1, i1, s1 = Measure.cpu_states () in
  (b1 -. b0, i1 -. i0, s1 -. s0)

type report = {
  setup_s : float;
  warm_s : float;  (** the warmup iteration alone *)
  untraced : iteration list;
  traced : iteration list;
  lanes : int;  (** parallel lanes an iteration's direct child spans run on *)
  peak_rss_mb : float;
  attempted : int;
  failures : string list;  (** one line per failed operation or check *)
  gc_events : int;  (** events the GC counters below were taken over *)
  gc : Measure.gc_delta;
}

let empty_gc = { Measure.minor_words = 0.0; minor_collections = 0; major_collections = 0 }

(* Timed iterations until [ctx.seconds] have passed and at least [min]
   ran. A traced run alternates untraced and traced iterations, so both
   halves see the same machine state. *)
let loop ctx mode ~min ~iterate =
  let t0 = Measure.now_ns () in
  let rec go n u t =
    if n >= min && Measure.seconds_since t0 >= ctx.seconds then (List.rev u, List.rev t)
    else if mode = Traced && n mod 2 = 1 then go (n + 1) u (iterate ~traced:true :: t)
    else go (n + 1) (iterate ~traced:false :: u) t
  in
  go 0 [] []

(* The smoke run only checks that every figure is produced and every
   check passes, so it works on a prefix of each trace (still a valid
   trace) to stay short. *)
let smoke_prefix ctx t =
  if ctx.smoke then Trace.of_list (List.filteri (fun i _ -> i < 10_000) (Trace.to_list t)) else t

let min_iterations ctx mode =
  match (ctx.smoke, mode) with true, Traced -> 2 | true, _ -> 1 | false, Traced -> 4 | false, _ -> 2

(* Run [body] as one iteration: wall and process CPU around it and, when
   traced, a root span named [name] whose children are the layer calls. *)
let in_process ~traced name body =
  let m0 = Measure.cpu_states () in
  let cpu0 = Measure.cpu_self () in
  let t0 = Measure.now_ns () in
  let run () = Spans.span name (fun id -> (id, body id)) in
  let id, (events, tasks, out) = if traced then Spans.recording run else run () in
  let wall_s = Measure.seconds_since t0 in
  let cpu_s = Measure.cpu_self () -. cpu0 in
  ( {
      wall_s;
      cpu_s;
      events;
      tasks;
      root = (if traced then Some (Spans.find id) else None);
      machine = machine_delta m0;
    },
    out )

(* ------------------------------------------------------------------ *)
(* table1                                                              *)

module Table1 = struct
  (* Three traces per case study, as [dmm table1]. *)
  let seeds = 3

  (* The columns of [Experiments.table1], with the seed of the first trace
     taken from the benchmark's seed instead of fixed at 42. *)
  let columns =
    [
      ("DRR scheduler", Experiments.drr_trace_seed, `Drr);
      ("3D image reconstruction", Experiments.reconstruct_trace_seed, `Reconstruct);
      ("3D scalable rendering", Experiments.render_trace_seed, `Render);
    ]

  type cell = (int * int, string) result

  let measure make live_hint trace : cell =
    match
      let a = make () in
      Replay.run ~live_hint trace a;
      (Allocator.max_footprint a, (Allocator.stats a).Dmm_core.Metrics.ops)
    with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)

  (* Rows exactly as [Experiments.run_column] aggregates them. *)
  let table workload traces managers (cells : (cell * float) array) =
    let value i = match fst cells.(i) with Ok v -> v | Error _ -> (0, 0) in
    let rows =
      List.init (Array.length managers) (fun mi ->
          let manager, _ = managers.(mi) in
          let results = List.init seeds (fun ti -> value ((mi * seeds) + ti)) in
          let mean f = List.fold_left (fun acc r -> acc + f r) 0 results / seeds in
          let fps = List.map fst results in
          let fp = mean fst in
          let spread_pct =
            let mx = List.fold_left max 0 fps and mn = List.fold_left min max_int fps in
            if fp = 0 then 0.0 else 100.0 *. float_of_int (mx - mn) /. float_of_int fp
          in
          let secs = List.init seeds (fun ti -> snd cells.((mi * seeds) + ti)) in
          {
            Experiments.manager;
            footprint = fp;
            spread_pct;
            paper_bytes = Experiments.paper_reference workload manager;
            ops = mean snd;
            replay_seconds = List.fold_left ( +. ) 0.0 secs /. float_of_int seeds;
          })
    in
    let peak_live =
      Array.fold_left
        (fun acc t -> acc + (Profile.total (Profile_builder.of_trace t)).Profile.peak_live_bytes)
        0 traces
      / seeds
    in
    let events = Array.fold_left (fun acc t -> acc + Trace.length t) 0 traces / seeds in
    { Experiments.workload; events; peak_live; rows }

  (* The custom manager of a column, designed on its first trace as
     [Experiments.run_column] does. This is set-up, not grid work:
     reconstruct's is the explorer's search ([Scenario.design_for]), whose
     time follows the seed's trace (0.8 to 5.7 s over seeds 1-14), so
     inside the timed grid it made the seed, not the code, set the time
     per event. The explore workload times that search. *)
  let custom_make ctx (_, trace_of_seed, custom) =
    match custom with
    | `Drr -> Scenario.custom_manager (Scenario.drr_paper_design ())
    | `Reconstruct -> Scenario.custom_manager (Scenario.design_for (smoke_prefix ctx (trace_of_seed ctx.seed)))
    | `Render -> Scenario.custom_global (Scenario.render_paper_design ())

  let column ctx ~parent ((workload, trace_of_seed, _), custom_make) =
    let traces =
      Spans.span ~parent "tracegen" (fun _ ->
          Array.init seeds (fun i -> smoke_prefix ctx (trace_of_seed (ctx.seed + i))))
    in
    let managers = Array.of_list (Scenario.baselines () @ [ ("custom DM manager", custom_make) ]) in
    let cells =
      Spans.span ~parent "pool.map" (fun map_id ->
          let live_hints = Array.map Trace.peak_live_count traces in
          Pool.map
            (Array.init (Array.length managers * seeds) Fun.id)
            (fun i ->
              let name, make = managers.(i / seeds) in
              Spans.span ~parent:map_id ("replay " ^ name) (fun _ ->
                  Measure.time (fun () -> measure make live_hints.(i mod seeds) traces.(i mod seeds)))))
    in
    let tasks = Array.mapi (fun i (_, secs) -> (secs, Trace.length traces.(i mod seeds))) cells in
    let table = Spans.span ~parent "readout" (fun _ -> table workload traces managers cells) in
    (table, Array.map fst cells, tasks)

  let grid ctx customs ~traced =
    in_process ~traced "table1" (fun root ->
        let cols = List.map (column ctx ~parent:root) (List.combine columns customs) in
        let tasks = List.concat_map (fun (_, _, t) -> Array.to_list t) cols in
        ( List.fold_left (fun acc (_, n) -> acc + n) 0 tasks,
          tasks,
          (List.map (fun (t, _, _) -> t) cols, Array.concat (List.map (fun (_, c, _) -> c) cols)) ))

  let render tables = String.concat "\n" (List.map (Format.asprintf "%a" Experiments.pp_table) tables)

  let run ctx mode =
    Experiments.paper_scale := not ctx.smoke;
    let t0 = Measure.now_ns () in
    let customs = List.map (custom_make ctx) columns in
    let warm, (tables, reference) = grid ctx customs ~traced:false in
    let setup_s = Measure.seconds_since t0 in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    let check_cells label cells =
      Array.iteri
        (fun i c ->
          match (c, reference.(i)) with
          | Error e, _ -> fail "%s: cell %d raised %s" label i e
          | Ok v, Ok r when v <> r -> fail "%s: cell %d differs from the warmup iteration" label i
          | Ok _, _ -> ())
        cells
    in
    check_cells "warmup" reference;
    let untraced, traced, gc =
      if mode = Setup_only then ([], [], empty_gc)
      else
        let (u, t), gc =
          Measure.with_gc (fun () ->
              loop ctx mode ~min:(min_iterations ctx mode) ~iterate:(fun ~traced ->
                  let it, (_, cells) = grid ctx customs ~traced in
                  check_cells (if traced then "traced" else "timed") cells;
                  it))
        in
        (u, t, gc)
    in
    (* Fidelity: with the seeds [dmm table1] uses, the grid built here
       renders exactly like the library's own Table 1 — at paper scale in a
       timed run, at quick scale over whole traces in the smoke run, so the
       test suite checks it too. *)
    if mode = Timed && ctx.seed = 42 then begin
      let tables =
        if not ctx.smoke then tables
        else
          let whole = { ctx with smoke = false } in
          fst (snd (grid whole (List.map (custom_make whole) columns) ~traced:false))
      in
      if render tables <> render (Experiments.table1 ~seeds ()) then
        fail "table1 at seed 42 does not render like Experiments.table1"
      else
        Printf.printf "fidelity: the seed-42 grid renders like Experiments.table1 at %s scale\n"
          (if ctx.smoke then "quick" else "paper")
    end;
    let timed = untraced @ traced in
    {
      setup_s;
      warm_s = warm.wall_s;
      untraced;
      traced;
      lanes = 1;
      peak_rss_mb = Measure.peak_rss_mb "self";
      attempted = Array.length reference * (1 + List.length timed);
      failures = List.rev !failures;
      gc_events = List.fold_left (fun acc it -> acc + it.events) 0 timed;
      gc;
    }
end

(* ------------------------------------------------------------------ *)
(* explore                                                             *)

module Explore = struct
  let keys (spec : Scenario.global_spec) =
    Explorer.design_key spec.default
    :: List.map (fun (p, d) -> Printf.sprintf "%d:%s" p (Explorer.design_key d)) spec.overrides

  let heuristic s =
    match Explorer.heuristic_design s with Ok d -> d | Error m -> failwith ("heuristic design: " ^ m)

  (* [Scenario.global_design_for] split into its public calls (no phase
     detection, no advisor), so each layer gets its own span. *)
  let split ~parent trace =
    let profile = Spans.span ~parent "profile" (fun _ -> Profile_builder.of_trace trace) in
    let total = Profile.total profile in
    match Profile.phases profile with
    | [] | [ _ ] ->
      let base = Spans.span ~parent "explorer.heuristic" (fun _ -> heuristic total) in
      let cands = Spans.span ~parent "explorer.candidates" (fun _ -> Explorer.candidates total base) in
      let scores =
        Spans.span ~parent "sim.outcomes" (fun _ -> Sim.score_all (Sim.create trace) (Array.of_list cands))
      in
      let best, _ =
        Spans.span ~parent "explorer.refine" (fun _ -> Explorer.refine_batch ~score_all:(fun _ -> scores) cands)
      in
      { Scenario.default = best; overrides = [] }
    | phases ->
      let default, initial =
        Spans.span ~parent "explorer.heuristic" (fun _ ->
            (heuristic total, List.map (fun (s : Profile.phase_summary) -> (s.phase, heuristic s)) phases))
      in
      (* One coordinate-descent pass: each phase refined with the others
         held at their current designs. *)
      let refine_phase overrides (s : Profile.phase_summary) =
        let pid = s.phase in
        let cands =
          Spans.span ~parent "explorer.candidates" (fun _ -> Explorer.candidates s (List.assoc pid overrides))
        in
        let with_design d =
          { Scenario.default; overrides = List.map (fun (p, x) -> (p, if p = pid then d else x)) overrides }
        in
        let scores =
          Spans.span ~parent "phase_refine" (fun _ ->
              Pool.map (Array.of_list cands) (fun d ->
                  Scenario.max_footprint trace (Scenario.custom_global (with_design d))))
        in
        let best, _ =
          Spans.span ~parent "explorer.refine" (fun _ -> Explorer.refine_batch ~score_all:(fun _ -> scores) cands)
        in
        List.map (fun (p, x) -> (p, if p = pid then best else x)) overrides
      in
      { Scenario.default; overrides = List.fold_left refine_phase initial phases }

  let run ctx mode =
    Experiments.paper_scale := not ctx.smoke;
    let t0 = Measure.now_ns () in
    let cases =
      List.map (smoke_prefix ctx)
        [
          Experiments.drr_trace_seed ctx.seed;
          Experiments.reconstruct_trace_seed ctx.seed;
          Experiments.render_trace_seed ctx.seed;
        ]
    in
    (* The warmup is the split path: it checks on every run that the
       public calls reproduce [global_design_for]. *)
    let warm, reference =
      in_process ~traced:false "explore" (fun _ -> (0, [], List.map (fun t -> keys (split ~parent:0 t)) cases))
    in
    (* A case's work is its trace length: fixed by the seed, so a search
       that replays more candidates shows as a slower search, not as more
       work. *)
    let case_events = List.map Trace.length cases in
    let events = List.fold_left ( + ) 0 case_events in
    let setup_s = Measure.seconds_since t0 in
    let failures = ref [] in
    let check label got =
      List.iteri
        (fun i (k, r) -> if k <> r then failures := Printf.sprintf "%s: case %d chose another design" label i :: !failures)
        (List.combine got reference)
    in
    let iterate ~traced =
      let it, got =
        in_process ~traced "explore" (fun root ->
            if traced then (events, [], List.map (fun t -> keys (split ~parent:root t)) cases)
            else
              let timed = List.map (fun t -> Measure.time (fun () -> keys (Scenario.global_design_for t))) cases in
              (events, List.combine (List.map snd timed) case_events, List.map fst timed))
      in
      check (if traced then "traced" else "timed") got;
      it
    in
    let (untraced, traced), gc =
      if mode = Setup_only then (([], []), empty_gc)
      else Measure.with_gc (fun () -> loop ctx mode ~min:(min_iterations ctx mode) ~iterate)
    in
    let timed = untraced @ traced in
    {
      setup_s;
      warm_s = warm.wall_s;
      untraced;
      traced;
      lanes = 1;
      peak_rss_mb = Measure.peak_rss_mb "self";
      attempted = List.length cases * (1 + List.length timed);
      failures = List.rev !failures;
      gc_events = events * List.length timed;
      gc;
    }
end

(* ------------------------------------------------------------------ *)
(* ingest-large / ingest-small                                         *)

module Ingest = struct
  let baselines_but_lea () = List.filter (fun (name, _) -> name <> "Lea-Linux") (Scenario.baselines ())

  (* Streams at quick scale, every one from a seed-derived trace:
     large = DRR under Lea from six trace seeds; small = the five other
     baselines on the three case studies. *)
  let streams ctx kind =
    Experiments.paper_scale := false;
    let encode label trace make = Serve_load.encode ~dir:ctx.dir ~label (smoke_prefix ctx trace) make in
    match kind with
    | `Large ->
      List.init (if ctx.smoke then 2 else 6) (fun i ->
          encode (Printf.sprintf "drr/lea/%d" (ctx.seed + i)) (Experiments.drr_trace_seed (ctx.seed + i)) Scenario.lea)
    | `Small ->
      let cases =
        [
          ("drr", Experiments.drr_trace_seed ctx.seed);
          ("reconstruct", Experiments.reconstruct_trace_seed ctx.seed);
          ("render", Experiments.render_trace_seed ctx.seed);
        ]
      in
      let cases = if ctx.smoke then [ List.hd cases ] else cases in
      List.concat_map
        (fun (case, trace) ->
          List.map (fun (name, make) -> encode (case ^ "/" ^ name) trace make) (baselines_but_lea ()))
        cases

  (* Two connections, each with its own fixed order of every stream. *)
  let orders ctx streams =
    Array.init 2 (fun c ->
        let a = Array.of_list streams in
        Dmm_util.Prng.shuffle_in_place (Dmm_util.Prng.create ((ctx.seed * 31) + c)) a;
        Array.to_list a)

  let run ctx mode kind =
    let t0 = Measure.now_ns () in
    let streams = streams ctx kind in
    let orders = orders ctx streams in
    let per_round = 2 * List.length streams in
    let round_events = 2 * List.fold_left (fun acc s -> acc + s.Serve_load.events) 0 streams in
    let rounds =
      match mode with
      | Setup_only -> 0
      | Timed | Traced -> (
        let min = if ctx.smoke then min_iterations ctx mode else if mode = Traced then 4 else 5 in
        match ctx.round_estimate with
        | Some r when not ctx.smoke -> max min (int_of_float (Float.ceil (ctx.seconds /. r)))
        | _ -> min)
    in
    let sentinel = if rounds > 0 then 1 else 0 in
    let d = Serve_load.start ~dmm:ctx.dmm ~dir:ctx.dir ~exit_after:(((1 + rounds) * per_round) + sentinel) () in
    let failures = ref [] in
    let check label results =
      if List.length results <> per_round then
        failures := Printf.sprintf "%s: %d replies for %d streams" label (List.length results) per_round :: !failures;
      List.iter
        (fun (r : Serve_load.sent) ->
          if not (Serve_load.ok r) then
            failures := Printf.sprintf "%s: %s: %S" label r.stream.label r.reply :: !failures)
        results
    in
    let warm, warm_s = Measure.time (fun () -> Serve_load.round d orders) in
    check "warmup" warm;
    let setup_s = Measure.seconds_since t0 in
    let iterate r =
      let traced = mode = Traced && r mod 2 = 1 in
      let m0 = Measure.cpu_states () in
      let cpu0 = Measure.cpu_of_pid d.pid in
      let t1 = Measure.now_ns () in
      let run () = Spans.span "round" (fun id -> (id, Serve_load.round ~parent:id d orders)) in
      let id, results = if traced then Spans.recording run else run () in
      let wall_s = Measure.seconds_since t1 in
      let cpu_s = Measure.cpu_of_pid d.pid -. cpu0 in
      check (if traced then "traced" else "timed") results;
      ( traced,
        {
          wall_s;
          cpu_s;
          events = round_events;
          tasks = List.map (fun (r : Serve_load.sent) -> (r.latency_s, r.stream.events)) results;
          root = (if traced then Some (Spans.find id) else None);
          machine = machine_delta m0;
        } )
    in
    let its = List.init rounds iterate in
    let peak_rss_mb = if rounds > 0 then Measure.peak_rss_mb (string_of_int d.pid) else 0.0 in
    if sentinel = 1 then begin
      let reply, _ = Serve_load.send ~lane:1000 d (Serve_load.empty_stream ~dir:ctx.dir) in
      if reply <> "ok 0 events, 0 diagnostics" then failures := ("last stream: " ^ reply) :: !failures
    end;
    let exit = Serve_load.wait d in
    let streams_total = ((1 + rounds) * per_round) + sentinel in
    let events_total = (1 + rounds) * round_events in
    let expected =
      Printf.sprintf "serve: done: %d streams, %d events, 0 diagnostics, 0 stream errors" streams_total
        events_total
    in
    if not exit.status_ok then failures := "dmm serve exited abnormally" :: !failures;
    if exit.done_line <> expected then
      failures := Printf.sprintf "daemon totals %S, expected %S" exit.done_line expected :: !failures;
    let gc_field k = Option.value ~default:0.0 (List.assoc_opt k exit.gc) in
    {
      setup_s;
      warm_s;
      untraced = List.filter_map (fun (t, it) -> if t then None else Some it) its;
      traced = List.filter_map (fun (t, it) -> if t then Some it else None) its;
      lanes = 2;
      peak_rss_mb;
      attempted = streams_total;
      failures = List.rev !failures;
      gc_events = events_total;
      gc =
        {
          Measure.minor_words = gc_field "minor_words";
          minor_collections = int_of_float (gc_field "minor_collections");
          major_collections = int_of_float (gc_field "major_collections");
        };
    }
end

let names = [ "table1"; "explore"; "ingest-large"; "ingest-small" ]

(* Set-ups run in fresh child processes before a run's own, so set-up time
   is the median of several cold samples. A table1 or explore set-up is a
   whole warmup iteration (about six seconds), so those take one extra
   sample; the ingest set-ups are cheap and take two. *)
let cold_setups = function "table1" | "explore" -> 1 | _ -> 2

let run name ctx mode =
  match name with
  | "table1" -> Table1.run ctx mode
  | "explore" -> Explore.run ctx mode
  | "ingest-large" -> Ingest.run ctx mode `Large
  | "ingest-small" -> Ingest.run ctx mode `Small
  | w -> invalid_arg ("unknown workload " ^ w)
