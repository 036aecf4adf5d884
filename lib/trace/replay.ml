module Allocator = Dmm_core.Allocator
module Probe = Dmm_obs.Probe
module Obs_event = Dmm_obs.Event

let run ?(probe = Probe.null) ?on_event ?live_hint:_ trace a =
  Dmm_obs.Span.with_span ~args:[ ("events", Trace.length trace) ] "replay.run" @@ fun () ->
  (* Live id -> address, one slot per id the trace allocates, made once:
     [Array.make] refuses a bound no array can hold before the first
     event. 0 is a valid heap address, so -1 marks "not live". *)
  let bound = Trace.id_bound trace in
  let addrs = Array.make bound (-1) in
  let alloc = a.Allocator.alloc and free = a.Allocator.free in
  (* Hoisted once per run: sinks can only ever be attached, never
     detached, so a probe that is empty here stays empty for the whole
     replay and the per-event observer test compiles down to a register
     check instead of a load+branch on the probe record. *)
  let observed = not (Probe.is_empty probe) in
  (* Event [i] straight from the trace's flat arrays: [i] is below the
     length by the loops, so the reads skip their bounds checks. An
     allocation's id is below [bound] but may be negative, so its store
     keeps its check. *)
  let step i =
    let id = Trace.unsafe_id trace i in
    match Trace.unsafe_kind trace i with
    | Trace.Alloc -> addrs.(id) <- alloc (Trace.unsafe_size trace i)
    | Trace.Free ->
      let addr = if id < 0 || id >= bound then -1 else Array.unsafe_get addrs id in
      if addr < 0 then
        invalid_arg (Printf.sprintf "Replay.run: free of non-live id %d" id)
      else begin
        Array.unsafe_set addrs id (-1);
        free addr
      end
    | Trace.Phase ->
      (* The replay driver owns phase markers: managers never re-emit
         them, so each one appears exactly once in the stream. *)
      if observed then Probe.emit probe (Obs_event.Phase id);
      Allocator.phase a id
  in
  let n = Trace.length trace in
  (* Hoist the observer dispatch out of the per-event loop. *)
  match on_event with
  | None ->
    for i = 0 to n - 1 do
      step i
    done
  | Some f ->
    for i = 0 to n - 1 do
      step i;
      f i a
    done

let max_footprint_of trace a =
  run trace a;
  Allocator.max_footprint a
