module Allocator = Dmm_core.Allocator
module Probe = Dmm_obs.Probe
module Obs_event = Dmm_obs.Event

(* Live id -> address table. Recorder ids are dense small integers, so a
   growable int array beats a hashtable on the replay hot path; -1 marks
   "not live" (0 is a valid heap address, so absence needs a sentinel). *)
type id_map = { mutable addrs : int array }

let id_map_create hint = { addrs = Array.make (max 16 hint) (-1) }

(* Grow straight to [id + 1] when doubling falls short: doubling until
   past [id] would wrap for an id near [max_int] and never end, while
   [id + 1] wraps to a negative size there, so the store below raises
   [Invalid_argument] instead. *)
let id_map_set m id addr =
  let n = Array.length m.addrs in
  if id >= n then begin
    let grown = Array.make (max (2 * n) (id + 1)) (-1) in
    Array.blit m.addrs 0 grown 0 n;
    m.addrs <- grown
  end;
  m.addrs.(id) <- addr

let run ?(probe = Probe.null) ?on_event ?(live_hint = 256) trace a =
  Dmm_obs.Span.with_span ~args:[ ("events", Trace.length trace) ] "replay.run" @@ fun () ->
  let addrs = id_map_create live_hint in
  (* Hoisted once per run: sinks can only ever be attached, never
     detached, so a probe that is empty here stays empty for the whole
     replay and the per-event observer test compiles down to a register
     check instead of a load+branch on the probe record. *)
  let observed = not (Probe.is_empty probe) in
  let step event =
    match event with
    | Event.Alloc { id; size } -> id_map_set addrs id (Allocator.alloc a size)
    | Event.Free { id } ->
      let addr =
        if id < 0 || id >= Array.length addrs.addrs then -1 else addrs.addrs.(id)
      in
      if addr < 0 then
        invalid_arg (Printf.sprintf "Replay.run: free of non-live id %d" id)
      else begin
        addrs.addrs.(id) <- -1;
        Allocator.free a addr
      end
    | Event.Phase p ->
      (* The replay driver owns phase markers: managers never re-emit
         them, so each one appears exactly once in the stream. *)
      if observed then Probe.emit probe (Obs_event.Phase p);
      Allocator.phase a p
  in
  (* Hoist the observer dispatch out of the per-event loop. *)
  match on_event with
  | None -> Trace.iteri (fun _ event -> step event) trace
  | Some f ->
    Trace.iteri
      (fun i event ->
        step event;
        f i a)
      trace

let max_footprint_of trace a =
  run trace a;
  Allocator.max_footprint a
