(* Reads the trace's flat arrays: no event is built, and the profile's
   id-indexed arrays are made once, at the trace's id bound. *)
let of_trace trace =
  let p = Dmm_core.Profile.create ~capacity:(Trace.id_bound trace) () in
  for i = 0 to Trace.length trace - 1 do
    let id = Trace.unsafe_id trace i in
    match Trace.unsafe_kind trace i with
    | Trace.Alloc -> Dmm_core.Profile.observe_alloc p ~id ~size:(Trace.unsafe_size trace i)
    | Trace.Free -> Dmm_core.Profile.observe_free p ~id
    | Trace.Phase -> Dmm_core.Profile.observe_phase p id
  done;
  p
