module Allocator = Dmm_core.Allocator
module Prng = Dmm_util.Prng

type config = {
  objects : int;
  base_vertices : int;
  max_level : int;
  record_bytes : int;
  orbit_cycles : int;
  composite_frames : int;
  output_buffers : int;
  seed : int;
}

let default_config =
  {
    objects = 8;
    base_vertices = 8;
    max_level = 6;
    record_bytes = 24;
    orbit_cycles = 24;
    composite_frames = 24;
    output_buffers = 2;
    seed = 11;
  }

let paper_config =
  {
    default_config with
    objects = 12;
    base_vertices = 24;
    orbit_cycles = 32;
    composite_frames = 32;
    output_buffers = 4;
  }

type stats = {
  records_peak : int;
  records_total : int;
  buffers_total : int;
  checksum : int;
}

let vertices_at config level = config.base_vertices * (1 lsl level)

let run ?(config = default_config) ?(simulate = true) a =
  if config.objects <= 0 || config.base_vertices <= 0 || config.max_level < 0 then
    invalid_arg "Render.run: bad config";
  let rng = Prng.create config.seed in
  let records_total = ref 0 in
  let buffers_total = ref 0 in
  let checksum = ref 0 in
  (* The simulated work, whose only output is [checksum]: a touch of each
     new block and the geometry processing, one pass over a buffer's
     bytes. A run that only records the DM behaviour skips both. *)
  let touch addr =
    if simulate then checksum := (!checksum + (addr * 2654435761)) land 0x3FFFFFFF
  in
  let shade bytes =
    if simulate then begin
      let acc = ref !checksum in
      for i = 1 to bytes do
        acc := (!acc * 31) + i
      done;
      checksum := !acc land 0x3FFFFFFF
    end
  in

  (* Phase 0 — approach: every object refines one level per frame, staggered,
     allocating one vertex-split record per new vertex. Pure growth. *)
  Allocator.phase a 0;
  let lod_records =
    Array.init config.objects (fun _ -> Array.make (config.max_level + 1) [])
  in
  for level = 0 to config.max_level do
    for obj = 0 to config.objects - 1 do
      let n = vertices_at config level in
      for _ = 1 to n do
        let addr = Allocator.alloc a config.record_bytes in
        touch addr;
        shade (config.record_bytes * 4);
        incr records_total;
        lod_records.(obj).(level) <- addr :: lod_records.(obj).(level)
      done
    done
  done;
  let records_peak =
    Array.fold_left
      (fun acc per_level ->
        Array.fold_left (fun acc l -> acc + List.length l) acc per_level)
      0 lod_records
  in

  (* Phase 1 — orbit: LIFO detail batches; sizes vary per cycle so free-list
     managers see mixed classes while the stack discipline stays perfect. *)
  Allocator.phase a 1;
  for cycle = 1 to config.orbit_cycles do
    let batch = ref [] in
    for obj = 0 to config.objects - 1 do
      let n = vertices_at config config.max_level / 4 in
      let size = 24 + (((cycle * 8) + (obj * 4)) mod 64) in
      for _ = 1 to n do
        let addr = Allocator.alloc a size in
        touch addr;
        shade (size * 4);
        incr records_total;
        batch := addr :: !batch
      done
    done;
    (* Pop in exact reverse allocation order. *)
    List.iter (Allocator.free a) !batch
  done;

  (* Phase 2 — compositing and teardown. Objects coarsen as the viewer
     leaves, so LOD records die mostly in reverse allocation order — but
     object-visibility changes scatter ~15% of the deaths out of order,
     which is what keeps Obstacks from reclaiming cleanly here (Section 5).
     Meanwhile output buffers (kept two frames, dying out of order) and
     per-frame tiles churn on top. *)
  Allocator.phase a 2;
  let remaining =
    (* Coarsening releases the finest level first, most recent object first;
       the per-level lists are most-recent-first already, so this is almost
       exactly reverse allocation order. *)
    let acc = ref [] in
    for level = 0 to config.max_level do
      for obj = 0 to config.objects - 1 do
        acc := lod_records.(obj).(level) @ !acc
      done
    done;
    let all = Array.of_list !acc in
    let n = Array.length all in
    for _ = 1 to n * 15 / 100 do
      let i = Prng.int rng n and j = Prng.int rng n in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    all
  in
  let total = Array.length remaining in
  let freed = ref 0 in
  let pending_outputs = Queue.create () in
  let keep_frames = 2 in
  for frame = 1 to config.composite_frames do
    (* Coarsen: release this frame's slice of the LOD data. *)
    let target = total * frame / config.composite_frames in
    while !freed < target do
      Allocator.free a remaining.(!freed);
      incr freed
    done;
    (* Output geometry buffers live for a couple of frames. *)
    let outputs =
      (* Richer scenes produce more and bigger output geometry. *)
      List.init config.output_buffers (fun _ ->
          let size = 1024 + Prng.int rng (1024 * config.output_buffers) in
          let addr = Allocator.alloc a size in
          touch addr;
          incr buffers_total;
          addr)
    in
    Queue.add outputs pending_outputs;
    if Queue.length pending_outputs > keep_frames then begin
      let old = Queue.pop pending_outputs in
      (* Free out of order: oldest outputs die after newer ones were born. *)
      List.iter (Allocator.free a) old
    end;
    (* Per-frame tiles, freed in shuffled order within the frame; tile
       resolution varies with the composited view, so sizes shift from
       frame to frame. *)
    let tiles =
      Array.init 8 (fun i ->
          let size = 1024 + (509 * ((frame + i) mod 12)) in
          let addr = Allocator.alloc a size in
          touch addr;
          incr buffers_total;
          addr)
    in
    (* Rasterise the frame: one pass over every tile. *)
    Array.iter (fun (_ : int) -> shade 2048) tiles;
    Prng.shuffle_in_place rng tiles;
    Array.iter (Allocator.free a) tiles
  done;
  Queue.iter (fun outputs -> List.iter (Allocator.free a) outputs) pending_outputs;
  {
    records_peak;
    records_total = !records_total;
    buffers_total = !buffers_total;
    checksum = !checksum;
  }

let pp_stats ppf s =
  Format.fprintf ppf "records_peak=%d records_total=%d buffers=%d checksum=%d"
    s.records_peak s.records_total s.buffers_total s.checksum
