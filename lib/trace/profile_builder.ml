(* Reads the trace's flat arrays: no event is built. *)
let of_trace trace =
  let p = Dmm_core.Profile.create () in
  for i = 0 to Trace.length trace - 1 do
    let id = Trace.id trace i in
    match Trace.kind trace i with
    | Trace.Alloc -> Dmm_core.Profile.observe_alloc p ~id ~size:(Trace.size trace i)
    | Trace.Free -> Dmm_core.Profile.observe_free p ~id
    | Trace.Phase -> Dmm_core.Profile.observe_phase p id
  done;
  p
