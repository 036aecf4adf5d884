(* Address-space occupancy heat map.

   Rasterizes the heap into a fixed-width grid: columns split the address
   range into equal byte bands, rows are snapshots of the live set taken
   at regular clock intervals. Both scales adapt as the stream grows —
   when the break (or an allocation) moves past the gridded range the
   byte-per-column scale doubles and adjacent columns merge; when the
   snapshot count fills the row budget the clock-per-row scale doubles
   and each pair of rows collapses to its later member (the same
   stride-doubling trick as [Frag_sink]) — so the final grid depends only
   on the event stream, never on how it was delivered.

   Cells carry exact byte counts: [live] payload bytes and [overhead]
   (tag + padding) bytes of the blocks overlapping the column, laid out
   as [payload | tag + padding] from the payload address ([Alloc] does
   not carry the block base; the constant head-tag shift this ignores
   cannot create overlaps, because payload addresses are gross bytes
   apart). Free bytes are derived per cell at render time as the
   column's share of [0, brk) minus what is live. *)

type row = { r_clock : int; live : int array; overhead : int array; r_brk : int }

type grid = {
  g_cols : int;
  g_addr_per_col : int;
  g_clock_per_row : int;
  g_rows : row list;
}

type t = {
  cols : int;
  max_rows : int;
  (* addr -> (payload, tag, gross) of the live block *)
  blocks : (int, int * int * int) Hashtbl.t;
  mutable addr_per_col : int;
  mutable clock_per_row : int;
  mutable next_flush : int;
  mutable brk : int;
  mutable last_clock : int;
  cur_live : int array;
  cur_overhead : int array;
  mutable rows : row array;
  mutable len : int;
}

let create ?(rows = 16) ?(cols = 64) () =
  if rows < 2 then invalid_arg "Heatmap_sink.create: rows must be >= 2";
  if cols < 1 then invalid_arg "Heatmap_sink.create: cols must be >= 1";
  {
    cols;
    max_rows = rows;
    blocks = Hashtbl.create 256;
    addr_per_col = 64;
    clock_per_row = 1;
    next_flush = 1;
    brk = 0;
    last_clock = 0;
    cur_live = Array.make cols 0;
    cur_overhead = Array.make cols 0;
    rows = Array.make rows { r_clock = 0; live = [||]; overhead = [||]; r_brk = 0 };
    len = 0;
  }

(* Add [delta] bytes of the range [lo, hi) into [arr], split by column
   overlap. Exact byte arithmetic, so adding and later subtracting the
   same range cancels even across column merges (merges sum columns). *)
let add_range t arr lo hi delta =
  if hi > lo then begin
    let apc = t.addr_per_col in
    let c0 = lo / apc and c1 = (hi - 1) / apc in
    for c = max 0 c0 to min (t.cols - 1) c1 do
      let covered = min hi ((c + 1) * apc) - max lo (c * apc) in
      arr.(c) <- arr.(c) + (delta * covered)
    done
  end

let add_block t ~addr ~payload ~tag ~gross delta =
  add_range t t.cur_live addr (addr + payload) delta;
  add_range t t.cur_overhead (addr + payload) (addr + gross) delta;
  ignore tag

let merge_cols arr cols =
  let half = cols / 2 in
  for c = 0 to half - 1 do
    arr.(c) <- arr.(2 * c) + arr.((2 * c) + 1)
  done;
  for c = half to cols - 1 do
    arr.(c) <- 0
  done

(* Double the byte-per-column scale until [extent) fits the grid,
   merging column pairs in the running raster and every completed row.
   The doubling stops before [cols * addr_per_col] would overflow; bytes
   past that width (only a hostile extent gets there) fall off the grid. *)
let rescale_addr t extent =
  while extent > t.cols * t.addr_per_col && t.addr_per_col <= max_int / (2 * t.cols) do
    merge_cols t.cur_live t.cols;
    merge_cols t.cur_overhead t.cols;
    for i = 0 to t.len - 1 do
      merge_cols t.rows.(i).live t.cols;
      merge_cols t.rows.(i).overhead t.cols
    done;
    t.addr_per_col <- 2 * t.addr_per_col
  done

let snapshot t clock =
  {
    r_clock = clock;
    live = Array.copy t.cur_live;
    overhead = Array.copy t.cur_overhead;
    r_brk = t.brk;
  }

let flush t =
  if t.len = t.max_rows then begin
    (* Row budget full: keep the later snapshot of every pair and halve
       the time resolution from here on. *)
    let kept = t.len / 2 in
    for i = 0 to kept - 1 do
      t.rows.(i) <- t.rows.((2 * i) + 1)
    done;
    t.len <- kept;
    t.clock_per_row <- Dmm_util.Size.sat_add t.clock_per_row t.clock_per_row
  end;
  t.rows.(t.len) <- snapshot t t.next_flush;
  t.len <- t.len + 1;
  (* Saturating: a hostile clock near [max_int] must not wrap the
     schedule into an endless catch-up loop. *)
  t.next_flush <- Dmm_util.Size.sat_add t.next_flush t.clock_per_row

let on_event t clock (e : Event.t) =
  while clock >= t.next_flush && t.next_flush < max_int do
    flush t
  done;
  t.last_clock <- clock;
  match e with
  | Event.Alloc { payload; gross; tag; addr } ->
    (* A defective stream can alloc over a live address: retract the
       orphaned block first so the raster never double-counts. *)
    (match Hashtbl.find_opt t.blocks addr with
    | Some (p, tg, g) -> add_block t ~addr ~payload:p ~tag:tg ~gross:g (-1)
    | None -> ());
    rescale_addr t (max (addr + gross) t.brk);
    Hashtbl.replace t.blocks addr (payload, tag, gross);
    add_block t ~addr ~payload ~tag ~gross 1
  | Event.Free { addr; _ } -> (
    (* An unmatched free never touched the raster; ignore it (the
       lifetime sink counts it). *)
    match Hashtbl.find_opt t.blocks addr with
    | None -> ()
    | Some (payload, tag, gross) ->
      Hashtbl.remove t.blocks addr;
      add_block t ~addr ~payload ~tag ~gross (-1))
  | Event.Sbrk { brk; _ } ->
    rescale_addr t brk;
    t.brk <- brk
  | Event.Trim { brk; _ } -> t.brk <- brk
  | Event.Split _ | Event.Coalesce _ | Event.Phase _ | Event.Fit_scan _ -> ()

let attach probe t = Probe.attach probe (on_event t)

let grid t =
  let rows = Array.to_list (Array.sub t.rows 0 t.len) in
  (* The tail of the stream since the last flush is part of the picture:
     close the grid with the exact final state. *)
  let rows = rows @ [ snapshot t t.last_clock ] in
  {
    g_cols = t.cols;
    g_addr_per_col = t.addr_per_col;
    g_clock_per_row = t.clock_per_row;
    g_rows = rows;
  }

(* Free bytes of column [c]: its share of [0, brk) minus live bytes,
   clamped (the head-tag shift can push the last block past the break). *)
let free_in g (r : row) c =
  let lo = c * g.g_addr_per_col and hi = (c + 1) * g.g_addr_per_col in
  let capacity = min hi r.r_brk - lo in
  if capacity <= 0 then 0 else max 0 (capacity - r.live.(c) - r.overhead.(c))

let cell_char g (r : row) c =
  let lo = c * g.g_addr_per_col in
  if lo >= r.r_brk then ' '
  else begin
    let used = r.live.(c) + r.overhead.(c) in
    let capacity = min ((c + 1) * g.g_addr_per_col) r.r_brk - lo in
    if used <= 0 then '.'
    else begin
      let q = used * 4 / max 1 capacity in
      match q with 0 -> ':' | 1 -> 'o' | 2 -> 'O' | 3 -> '#' | _ -> '#'
    end
  end

let pp ppf t =
  let g = grid t in
  Format.fprintf ppf "@[<v>addr 0..%d B across (%d B/col), clock down (~%d/row)@,"
    (g.g_cols * g.g_addr_per_col) g.g_addr_per_col g.g_clock_per_row;
  List.iter
    (fun (r : row) ->
      Format.fprintf ppf "%9d |" r.r_clock;
      for c = 0 to g.g_cols - 1 do
        Format.pp_print_char ppf (cell_char g r c)
      done;
      Format.fprintf ppf "|@,")
    g.g_rows;
  Format.fprintf ppf "@]"
