module Allocator = Dmm_core.Allocator
module Metrics = Dmm_core.Metrics

let recording_allocator () =
  let trace = Trace.Builder.create () in
  let metrics = Metrics.create () in
  (* The size of each live id, indexed by id; 0 marks an id that is not
     live (sizes are positive). Ids are handed out one at a time from 1,
     so the array doubles when the next id reaches its end. *)
  let sizes = ref (Array.make 256 0) in
  let next = ref 0 in
  let alloc size =
    if size <= 0 then invalid_arg "recording allocator: non-positive size";
    incr next;
    let id = !next in
    let n = Array.length !sizes in
    if id = n then begin
      let grown = Array.make (2 * n) 0 in
      Array.blit !sizes 0 grown 0 n;
      sizes := grown
    end;
    !sizes.(id) <- size;
    Trace.Builder.add_alloc trace ~id ~size;
    Metrics.on_alloc metrics ~payload:size ~gross:size ~tag:0 ~addr:id;
    id
  in
  let free id =
    let size = if id < 0 || id >= Array.length !sizes then 0 else !sizes.(id) in
    if size = 0 then raise (Allocator.Invalid_free id);
    !sizes.(id) <- 0;
    Trace.Builder.add_free trace id;
    Metrics.on_free metrics ~payload:size ~addr:id
  in
  let t =
    {
      Allocator.name = "recorder";
      alloc;
      free;
      phase = Trace.Builder.add_phase trace;
      current_footprint = (fun () -> Metrics.live_payload metrics);
      max_footprint = (fun () -> (Metrics.snapshot metrics).peak_live_payload);
      stats = (fun () -> Metrics.snapshot metrics);
      breakdown =
        (fun () ->
          let live = Metrics.live_payload metrics in
          {
            Metrics.live_payload = live;
            tag_overhead = 0;
            internal_padding = 0;
            free_bytes = 0;
            total_held = live;
          });
    }
  in
  (t, fun () -> Trace.Builder.build trace)
