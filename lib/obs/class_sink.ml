(* Per-size-class attribution: which class of block drives the traffic.

   Blocks are keyed by the power-of-two ceiling of their gross size, so
   managers with different class grids land on one comparable axis. The
   rows are the input for the `dmm report` text heatmap. *)

type cell = {
  mutable allocs : int;
  mutable frees : int;
  mutable alloc_bytes : int;
  mutable freed_bytes : int;
  mutable live_blocks : int;
  mutable peak_live_blocks : int;
  mutable live_bytes : int;
  mutable peak_live_bytes : int;
}

type row = {
  size_class : int;
  allocs : int;
  frees : int;
  alloc_bytes : int;
  freed_bytes : int;
  live_blocks : int;
  peak_live_blocks : int;
  live_bytes : int;
  peak_live_bytes : int;
}

type t = {
  classes : (int, cell) Hashtbl.t;
  by_addr : (int, int * int) Hashtbl.t; (* addr -> (class, gross) *)
}

let create () = { classes = Hashtbl.create 32; by_addr = Hashtbl.create 256 }

let cell t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some c -> c
  | None ->
    let c =
      {
        allocs = 0;
        frees = 0;
        alloc_bytes = 0;
        freed_bytes = 0;
        live_blocks = 0;
        peak_live_blocks = 0;
        live_bytes = 0;
        peak_live_bytes = 0;
      }
    in
    Hashtbl.replace t.classes cls c;
    c

let on_event t _clock (e : Event.t) =
  match e with
  | Event.Alloc { gross; addr; _ } ->
    let cls = Dmm_util.Size.pow2_class gross in
    Hashtbl.replace t.by_addr addr (cls, gross);
    let c = cell t cls in
    c.allocs <- c.allocs + 1;
    c.alloc_bytes <- c.alloc_bytes + gross;
    c.live_blocks <- c.live_blocks + 1;
    if c.live_blocks > c.peak_live_blocks then c.peak_live_blocks <- c.live_blocks;
    c.live_bytes <- c.live_bytes + gross;
    if c.live_bytes > c.peak_live_bytes then c.peak_live_bytes <- c.live_bytes
  | Event.Free { payload; addr } ->
    let cls, gross =
      match Hashtbl.find_opt t.by_addr addr with
      | Some cg -> cg
      | None -> (Dmm_util.Size.pow2_class payload, payload)
    in
    Hashtbl.remove t.by_addr addr;
    let c = cell t cls in
    c.frees <- c.frees + 1;
    c.freed_bytes <- c.freed_bytes + gross;
    c.live_blocks <- c.live_blocks - 1;
    c.live_bytes <- c.live_bytes - gross
  | Event.Split _ | Event.Coalesce _ | Event.Phase _ | Event.Sbrk _ | Event.Trim _
  | Event.Fit_scan _ ->
    ()

let attach probe t = Probe.attach probe (on_event t)

let rows t =
  Hashtbl.fold
    (fun size_class (c : cell) acc ->
      {
        size_class;
        allocs = c.allocs;
        frees = c.frees;
        alloc_bytes = c.alloc_bytes;
        freed_bytes = c.freed_bytes;
        live_blocks = c.live_blocks;
        peak_live_blocks = c.peak_live_blocks;
        live_bytes = c.live_bytes;
        peak_live_bytes = c.peak_live_bytes;
      }
      :: acc)
    t.classes []
  |> List.sort (fun a b -> compare a.size_class b.size_class)

let classes t = Hashtbl.length t.classes

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "<=%-8d allocs=%-8d frees=%-8d live=%dB (peak %dB)@,"
        r.size_class r.allocs r.frees r.live_bytes r.peak_live_bytes)
    (rows t);
  Format.fprintf ppf "@]"
