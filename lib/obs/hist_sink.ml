type t = {
  request : Log_hist.t;
  gross : Log_hist.t;
  fit_steps : Log_hist.t;
}

let create ?sub_bits () =
  {
    request = Log_hist.create ?sub_bits ();
    gross = Log_hist.create ?sub_bits ();
    fit_steps = Log_hist.create ?sub_bits ();
  }

let on_event t _clock (e : Event.t) =
  match e with
  | Event.Alloc { payload; gross; _ } ->
    Log_hist.record t.request payload;
    Log_hist.record t.gross gross
  | Event.Fit_scan { steps } -> Log_hist.record t.fit_steps steps
  | Event.Free _ | Event.Split _ | Event.Coalesce _ | Event.Phase _ | Event.Sbrk _
  | Event.Trim _ ->
    ()

let attach probe t = Probe.attach probe (on_event t)

let request t = t.request
let gross t = t.gross
let fit_steps t = t.fit_steps

let pp ppf t =
  Format.fprintf ppf "@[<v>request bytes:  %a@,gross bytes:    %a@,fit-scan steps: %a@]"
    Log_hist.pp t.request Log_hist.pp t.gross Log_hist.pp t.fit_steps
