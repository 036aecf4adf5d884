type t = { mutable current : int; mutable maximum : int }

let create () = { current = 0; maximum = 0 }

let on_event t _clock (e : Event.t) =
  match e with
  | Event.Sbrk { bytes; _ } ->
    t.current <- t.current + bytes;
    if t.current > t.maximum then t.maximum <- t.current
  | Event.Trim { bytes; _ } -> t.current <- t.current - bytes
  | Event.Alloc _ | Event.Free _ | Event.Split _ | Event.Coalesce _ | Event.Phase _
  | Event.Fit_scan _ ->
    ()

let attach probe t = Probe.attach probe (on_event t)

let current t = t.current
let peak t = t.maximum
