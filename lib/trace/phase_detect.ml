type config = { window : int; threshold : float; min_phase_windows : int }

let default_config = { window = 4096; threshold = 0.9; min_phase_windows = 2 }

(* Per-window behaviour summary. Sizes are compared on a log scale so a
   40-vs-1500-byte shift counts like a 1-vs-40 one. *)
type features = { mean_log_size : float; sd_log_size : float; alloc_ratio : float }

let features_of_window events =
  let sizes = Dmm_util.Stats.create () in
  let allocs = ref 0 and frees = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Event.Alloc { size; _ } ->
        incr allocs;
        Dmm_util.Stats.add sizes (log (float_of_int size))
      | Event.Free _ -> incr frees
      | Event.Phase _ -> ())
    events;
  let ops = !allocs + !frees in
  {
    mean_log_size = Dmm_util.Stats.mean sizes;
    sd_log_size = Dmm_util.Stats.stddev sizes;
    alloc_ratio = (if ops = 0 then 0.5 else float_of_int !allocs /. float_of_int ops);
  }

(* Weighted L1 distance; roughly 1.0 for a clearly different behaviour. *)
let distance a b =
  (0.35 *. Float.abs (a.mean_log_size -. b.mean_log_size))
  +. (0.4 *. Float.abs (a.sd_log_size -. b.sd_log_size))
  +. (1.4 *. Float.abs (a.alloc_ratio -. b.alloc_ratio))

let windows_of config trace =
  let n = Trace.length trace in
  let count = (n + config.window - 1) / config.window in
  List.init count (fun w ->
      let start = w * config.window in
      let stop = min n (start + config.window) in
      let events = List.init (stop - start) (fun i -> Trace.get trace (start + i)) in
      (start, features_of_window events))

let boundaries ?(config = default_config) trace =
  if config.window <= 0 || config.min_phase_windows <= 0 then
    invalid_arg "Phase_detect.boundaries: bad config";
  match windows_of config trace with
  | [] | [ _ ] -> []
  | (_, first) :: rest ->
    (* Compare each window against the running profile of the current
       phase, not just its predecessor, so slow drifts do not fragment. *)
    let cuts = ref [] in
    let current = ref first in
    let windows_in_phase = ref 1 in
    List.iter
      (fun (start, f) ->
        if
          distance !current f > config.threshold
          && !windows_in_phase >= config.min_phase_windows
        then begin
          cuts := start :: !cuts;
          current := f;
          windows_in_phase := 1
        end
        else begin
          (* Fold the window into the current phase's profile. *)
          let k = float_of_int !windows_in_phase in
          current :=
            {
              mean_log_size = ((!current.mean_log_size *. k) +. f.mean_log_size) /. (k +. 1.0);
              sd_log_size = ((!current.sd_log_size *. k) +. f.sd_log_size) /. (k +. 1.0);
              alloc_ratio = ((!current.alloc_ratio *. k) +. f.alloc_ratio) /. (k +. 1.0);
            };
          incr windows_in_phase
        end)
      rest;
    List.rev !cuts

let strip trace =
  let out = Trace.Builder.create () in
  Trace.iter
    (function
      | Event.Phase _ -> ()
      | (Event.Alloc _ | Event.Free _) as e -> Trace.Builder.add out e)
    trace;
  Trace.Builder.build out

let annotate ?(config = default_config) trace =
  let stripped = strip trace in
  let cuts = boundaries ~config stripped in
  let out = Trace.Builder.create () in
  Trace.Builder.add out (Event.Phase 0);
  let next_phase = ref 1 in
  let remaining = ref cuts in
  Trace.iteri
    (fun i e ->
      (match !remaining with
      | cut :: rest when i = cut ->
        Trace.Builder.add out (Event.Phase !next_phase);
        incr next_phase;
        remaining := rest
      | _ :: _ | [] -> ());
      Trace.Builder.add out e)
    stripped;
  Trace.Builder.build out
