module Probe = Dmm_obs.Probe
module Obs_event = Dmm_obs.Event

type breakdown = {
  live_payload : int;
  tag_overhead : int;
  internal_padding : int;
  free_bytes : int;
  total_held : int;
}

let pp_breakdown ppf b =
  let pct n =
    if b.total_held = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int b.total_held
  in
  Format.fprintf ppf
    "held=%dB: payload=%d (%.0f%%) tags=%d (%.0f%%) padding=%d (%.0f%%) free=%d (%.0f%%)"
    b.total_held b.live_payload (pct b.live_payload) b.tag_overhead (pct b.tag_overhead)
    b.internal_padding (pct b.internal_padding) b.free_bytes (pct b.free_bytes)

type snapshot = {
  allocs : int;
  frees : int;
  splits : int;
  coalesces : int;
  ops : int;
  live_payload : int;
  live_blocks : int;
  peak_live_payload : int;
}

type t = {
  probe : Probe.t;
  mutable allocs : int;
  mutable frees : int;
  mutable splits : int;
  mutable coalesces : int;
  mutable ops : int;
  mutable live_payload : int;
  mutable live_blocks : int;
  mutable peak_live_payload : int;
}

let create ?(probe = Probe.null) () =
  {
    probe;
    allocs = 0;
    frees = 0;
    splits = 0;
    coalesces = 0;
    ops = 0;
    live_payload = 0;
    live_blocks = 0;
    peak_live_payload = 0;
  }

(* The counting half of each step, shared by the emitting updaters and
   by [on_event], which must never re-emit what it is fed. *)
let count_alloc t payload =
  t.allocs <- t.allocs + 1;
  t.live_payload <- t.live_payload + payload;
  t.live_blocks <- t.live_blocks + 1;
  if t.live_payload > t.peak_live_payload then t.peak_live_payload <- t.live_payload

let count_free t payload =
  t.frees <- t.frees + 1;
  t.live_payload <- t.live_payload - payload;
  t.live_blocks <- t.live_blocks - 1

let probing t = Probe.enabled t.probe

let on_alloc t ~payload ~gross ~tag ~addr =
  count_alloc t payload;
  if Probe.enabled t.probe then
    Probe.emit t.probe (Obs_event.Alloc { payload; gross; tag; addr })

let on_free t ~payload ~addr =
  count_free t payload;
  if Probe.enabled t.probe then Probe.emit t.probe (Obs_event.Free { payload; addr })

let on_split t ~addr ~parent ~taken ~remainder =
  t.splits <- t.splits + 1;
  if Probe.enabled t.probe then
    Probe.emit t.probe (Obs_event.Split { addr; parent; taken; remainder })

let on_coalesce t ~addr ~merged ~absorbed =
  t.coalesces <- t.coalesces + 1;
  if Probe.enabled t.probe then
    Probe.emit t.probe (Obs_event.Coalesce { addr; merged; absorbed })

(* Zero-step scans are accounting no-ops: keep them out of the stream. *)
let add_ops t n =
  t.ops <- t.ops + n;
  if n <> 0 && Probe.enabled t.probe then
    Probe.emit t.probe (Obs_event.Fit_scan { steps = n })

let on_event t _clock (e : Obs_event.t) =
  match e with
  | Alloc { payload; _ } -> count_alloc t payload
  | Free { payload; _ } -> count_free t payload
  | Split _ -> t.splits <- t.splits + 1
  | Coalesce _ -> t.coalesces <- t.coalesces + 1
  | Fit_scan { steps } -> t.ops <- t.ops + steps
  | Phase _ | Sbrk _ | Trim _ -> ()

let snapshot t : snapshot =
  {
    allocs = t.allocs;
    frees = t.frees;
    splits = t.splits;
    coalesces = t.coalesces;
    ops = t.ops;
    live_payload = t.live_payload;
    live_blocks = t.live_blocks;
    peak_live_payload = t.peak_live_payload;
  }

let live_payload t = t.live_payload
let ops t = t.ops

let pp_snapshot ppf (s : snapshot) =
  Format.fprintf ppf
    "allocs=%d frees=%d splits=%d coalesces=%d ops=%d live=%dB (%d blocks) peak_live=%dB"
    s.allocs s.frees s.splits s.coalesces s.ops s.live_payload s.live_blocks
    s.peak_live_payload
