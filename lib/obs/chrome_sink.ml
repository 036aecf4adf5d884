type t = {
  name : string;
  pid : int;
  buf : Buffer.t;
  mutable events : int;
  mutable footprint : int;
  mutable live_payload : int;
}

let create ~name ~pid =
  { name; pid; buf = Buffer.create 4096; events = 0; footprint = 0; live_payload = 0 }

let add t line =
  if t.events > 0 then Buffer.add_string t.buf ",\n";
  Buffer.add_string t.buf line;
  t.events <- t.events + 1

let counter t clock ~track value =
  add t
    (Printf.sprintf
       "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%d,\"pid\":%d,\"tid\":0,\"args\":{\"bytes\":%d}}"
       track clock t.pid value)

let on_event t clock (e : Event.t) =
  match e with
  | Event.Sbrk { bytes; _ } ->
    t.footprint <- t.footprint + bytes;
    counter t clock ~track:"footprint" t.footprint
  | Event.Trim { bytes; _ } ->
    t.footprint <- t.footprint - bytes;
    counter t clock ~track:"footprint" t.footprint
  | Event.Alloc { payload; _ } ->
    t.live_payload <- t.live_payload + payload;
    counter t clock ~track:"live_payload" t.live_payload
  | Event.Free { payload; _ } ->
    t.live_payload <- t.live_payload - payload;
    counter t clock ~track:"live_payload" t.live_payload
  | Event.Phase p ->
    add t
      (Printf.sprintf
         "{\"name\":\"phase %d\",\"ph\":\"i\",\"s\":\"p\",\"ts\":%d,\"pid\":%d,\"tid\":0}"
         p clock t.pid)
  | Event.Split _ | Event.Coalesce _ | Event.Fit_scan _ -> ()

let attach probe t = Probe.attach probe (on_event t)
let events t = t.events

(* Async begin/end pair: chrome://tracing draws one bar per id between
   the two timestamps. Both halves are emitted at once (a span is only
   known complete at its Free), which Trace Event Format permits —
   events need not be sorted. *)
let async_span t ~id ~name ~start_clock ~end_clock ~payload =
  add t
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"b\",\"id\":%d,\"ts\":%d,\"pid\":%d,\"tid\":0,\"args\":{\"payload\":%d}}"
       (Json.escape name) id start_clock t.pid payload);
  add t
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"e\",\"id\":%d,\"ts\":%d,\"pid\":%d,\"tid\":0}"
       (Json.escape name) id end_clock t.pid)

(* Synchronous duration events for the self-tracer ([Span.to_chrome]):
   unlike the logical-clock tracks above these carry a real tid (domain
   id) and host microseconds, and the B/E pairing is the caller's
   responsibility. *)
let begin_span t ~ts ~tid ?(args = []) ?(sargs = []) name =
  let args_s =
    match (args, sargs) with
    | [], [] -> ""
    | _ ->
      ",\"args\":{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (Json.escape k) v) args
          @ List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
              sargs)
      ^ "}"
  in
  add t
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"self\",\"ph\":\"B\",\"ts\":%d,\"pid\":%d,\"tid\":%d%s}"
       (Json.escape name) ts t.pid tid args_s)

let end_span t ~ts ~tid =
  add t (Printf.sprintf "{\"ph\":\"E\",\"ts\":%d,\"pid\":%d,\"tid\":%d}" ts t.pid tid)

let write_file path sinks =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun t ->
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
        t.pid (Json.escape t.name);
      if t.events > 0 then begin
        output_string oc ",\n";
        Buffer.output_buffer oc t.buf
      end)
    sinks;
  output_string oc "\n]}\n"
