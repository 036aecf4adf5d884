(* Footprint decomposition over time (the Section-4.1 factors).

   Every factor is accumulated from event deltas alone:

     live_payload      Σ payload of live blocks
     tag_overhead      Σ tag bytes of live blocks
     internal_padding  Σ (gross - tag - payload) of live blocks
     free_bytes        footprint - Σ gross of live blocks

   so live_payload + tag_overhead + internal_padding + free_bytes =
   footprint holds identically at every point — the same invariant
   [Metrics.breakdown] promises for the managers' inline view. *)

type point = {
  clock : int;
  live_payload : int;
  tag_overhead : int;
  internal_padding : int;
  free_bytes : int;
  footprint : int;
}

type t = {
  (* addr -> (payload, tag, gross) of the live block. *)
  blocks : (int, int * int * int) Hashtbl.t;
  mutable footprint : int;
  mutable peak_footprint : int;
  mutable live_payload : int;
  mutable tag_overhead : int;
  mutable internal_padding : int;
  mutable live_gross : int;
  (* Exact per-event series, downsampled by stride doubling: whenever the
     buffer fills, every other retained point is dropped and the sampling
     stride doubles, so long runs keep <= max_points exact snapshots
     spread evenly over time plus the exact latest state. *)
  points : point array ref;
  mutable len : int;
  max_points : int;
  mutable stride : int;
  mutable seen : int;
  mutable last : point;
}

let origin =
  {
    clock = 0;
    live_payload = 0;
    tag_overhead = 0;
    internal_padding = 0;
    free_bytes = 0;
    footprint = 0;
  }

let create ?(max_points = 4096) () =
  if max_points < 2 then invalid_arg "Frag_sink.create: max_points must be >= 2";
  {
    blocks = Hashtbl.create 256;
    footprint = 0;
    peak_footprint = 0;
    live_payload = 0;
    tag_overhead = 0;
    internal_padding = 0;
    live_gross = 0;
    points = ref (Array.make (min 256 max_points) origin);
    len = 0;
    max_points;
    stride = 1;
    seen = 0;
    last = origin;
  }

let snap t clock =
  {
    clock;
    live_payload = t.live_payload;
    tag_overhead = t.tag_overhead;
    internal_padding = t.internal_padding;
    free_bytes = t.footprint - t.live_gross;
    footprint = t.footprint;
  }

let push t p =
  let arr = !(t.points) in
  let arr =
    if t.len < Array.length arr then arr
    else if Array.length arr < t.max_points then begin
      let grown = Array.make (min t.max_points (2 * Array.length arr)) origin in
      Array.blit arr 0 grown 0 t.len;
      t.points := grown;
      grown
    end
    else begin
      (* Buffer full: keep the most recent snapshot of every pair and
         halve the sampling rate from here on. *)
      let kept = t.len / 2 in
      for i = 0 to kept - 1 do
        arr.(i) <- arr.((2 * i) + 1)
      done;
      t.len <- kept;
      t.stride <- 2 * t.stride;
      arr
    end
  in
  arr.(t.len) <- p;
  t.len <- t.len + 1

let sample t clock =
  let p = snap t clock in
  t.last <- p;
  if t.seen mod t.stride = 0 then push t p;
  t.seen <- t.seen + 1

let on_event t clock (e : Event.t) =
  match e with
  | Event.Alloc { payload; gross; tag; addr } ->
    Hashtbl.replace t.blocks addr (payload, tag, gross);
    t.live_payload <- t.live_payload + payload;
    t.tag_overhead <- t.tag_overhead + tag;
    t.internal_padding <- t.internal_padding + (gross - tag - payload);
    t.live_gross <- t.live_gross + gross;
    sample t clock
  | Event.Free { payload; addr } ->
    let payload, tag, gross =
      match Hashtbl.find_opt t.blocks addr with
      | Some ptg -> ptg
      | None -> (payload, 0, payload) (* foreign stream: assume a bare block *)
    in
    Hashtbl.remove t.blocks addr;
    t.live_payload <- t.live_payload - payload;
    t.tag_overhead <- t.tag_overhead - tag;
    t.internal_padding <- t.internal_padding - (gross - tag - payload);
    t.live_gross <- t.live_gross - gross;
    sample t clock
  | Event.Sbrk { bytes; _ } ->
    t.footprint <- t.footprint + bytes;
    if t.footprint > t.peak_footprint then t.peak_footprint <- t.footprint;
    sample t clock
  | Event.Trim { bytes; _ } ->
    t.footprint <- t.footprint - bytes;
    sample t clock
  | Event.Split _ | Event.Coalesce _ | Event.Phase _ | Event.Fit_scan _ -> ()

let attach probe t = Probe.attach probe (on_event t)

let current t = t.last
let peak_footprint t = t.peak_footprint
let length t = t.len
let stride t = t.stride

let iter f t =
  let arr = !(t.points) in
  for i = 0 to t.len - 1 do
    f arr.(i)
  done;
  (* The latest state is part of the series even when the stride skipped
     it, so consumers always see the final factors. *)
  if t.len = 0 || arr.(t.len - 1).clock <> t.last.clock then
    if t.seen > 0 then f t.last

let points t =
  let acc = ref [] in
  iter (fun p -> acc := p :: !acc) t;
  List.rev !acc

let pp_point ppf p =
  Format.fprintf ppf
    "clock=%d payload=%d tags=%d padding=%d free=%d footprint=%d" p.clock
    p.live_payload p.tag_overhead p.internal_padding p.free_bytes p.footprint
