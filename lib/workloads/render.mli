(** Scalable-mesh 3D rendering — the paper's third case study.

    Progressive meshes with viewer-driven level of detail: as the viewer
    approaches, objects refine level by level, allocating one vertex-split
    record per new vertex (stack-like growth); a steady orbit phase pushes
    and pops detail batches in LIFO order; a final compositing phase tears
    the LOD data down in {e random} order while churning through output and
    tile buffers. The first two phases are exactly what Obstacks exploit;
    the last is what defeats them (Section 5). Phase markers 0/1/2 are sent
    through the allocator's [phase] hook. Deterministic given the seed. *)

type config = {
  objects : int;  (** default 8 *)
  base_vertices : int;  (** vertices at LOD 0, default 8 *)
  max_level : int;  (** finest LOD, default 6 *)
  record_bytes : int;  (** vertex-split record size, default 24 *)
  orbit_cycles : int;  (** LIFO push/pop cycles in the orbit phase, default 24 *)
  composite_frames : int;  (** frames of the final phase, default 24 *)
  output_buffers : int;
      (** output geometry buffers produced per compositing frame, each kept
          two frames and freed out of order (default 2) *)
  seed : int;
}

val default_config : config

val paper_config : config
(** A heavier scene whose absolute footprints match the magnitude of the
    paper's Table 1 rendering column. *)

type stats = {
  records_peak : int;  (** live vertex-split records at full detail *)
  records_total : int;
  buffers_total : int;  (** output + tile buffers allocated in phase 2 *)
  checksum : int;
      (** digest of the simulated work (a touch of each new block and the
          geometry processing); 0 when it is skipped *)
}

val run : ?config:config -> ?simulate:bool -> Dmm_core.Allocator.t -> stats
(** All memory is freed by the end of the run. [simulate] (default
    [true]) runs the simulated work, whose only output is [checksum];
    with [~simulate:false] it is skipped: the manager sees the same calls
    in the same order, and every other field is the same, so a caller
    that keeps only the DM behaviour ({!Scenario.render_trace}) pays only
    for that. *)

val pp_stats : Format.formatter -> stats -> unit
