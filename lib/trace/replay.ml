module Allocator = Dmm_core.Allocator
module Probe = Dmm_obs.Probe
module Obs_event = Dmm_obs.Event

let run ?(probe = Probe.null) ?on_event ?(live_hint = 256) trace a =
  Dmm_obs.Span.with_span ~args:[ ("events", Trace.length trace) ] "replay.run" @@ fun () ->
  (* Live id -> address; 0 is a valid heap address, so -1 marks "not live". *)
  let addrs = Id_map.create ~absent:(-1) live_hint in
  (* Hoisted once per run: sinks can only ever be attached, never
     detached, so a probe that is empty here stays empty for the whole
     replay and the per-event observer test compiles down to a register
     check instead of a load+branch on the probe record. *)
  let observed = not (Probe.is_empty probe) in
  (* Event [i] straight from the trace's flat arrays: no event is built. *)
  let step i =
    let id = Trace.id trace i in
    match Trace.kind trace i with
    | Trace.Alloc -> Id_map.set addrs id (Allocator.alloc a (Trace.size trace i))
    | Trace.Free ->
      let addr = Id_map.find addrs id in
      if addr < 0 then
        invalid_arg (Printf.sprintf "Replay.run: free of non-live id %d" id)
      else begin
        Id_map.set addrs id (-1);
        Allocator.free a addr
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
