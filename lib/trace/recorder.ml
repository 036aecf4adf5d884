module Allocator = Dmm_core.Allocator
module Metrics = Dmm_core.Metrics

let recording_allocator () =
  let trace = Trace.create () in
  let metrics = Metrics.create () in
  let sizes = Hashtbl.create 256 in
  let next = ref 0 in
  let alloc size =
    if size <= 0 then invalid_arg "recording allocator: non-positive size";
    incr next;
    let id = !next in
    Hashtbl.replace sizes id size;
    Trace.add trace (Event.Alloc { id; size });
    Metrics.on_alloc metrics ~payload:size ~gross:size ~tag:0 ~addr:id;
    id
  in
  let free id =
    match Hashtbl.find_opt sizes id with
    | None -> raise (Allocator.Invalid_free id)
    | Some size ->
      Hashtbl.remove sizes id;
      Trace.add trace (Event.Free { id });
      Metrics.on_free metrics ~payload:size ~addr:id
  in
  let t =
    {
      Allocator.name = "recorder";
      alloc;
      free;
      phase = (fun p -> Trace.add trace (Event.Phase p));
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
  (t, fun () -> trace)
