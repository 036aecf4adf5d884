(* W3C-traceparent-flavoured trace context for the serving stack.

   A context names one request across processes: a 128-bit trace id
   shared by every span of the request and a 64-bit span id naming the
   sender's own span. [dmm feed] generates a fresh context per
   connection and sends it as a one-line preamble ahead of the event
   stream; [dmm serve] parses it and stamps the connection's spans with
   the same trace id, so the feeder's and the daemon's Chrome traces
   join on it. *)

type t = { trace_id : string; span_id : string }

let magic = "DMMC"

(* Process-local id source. The ids only need to be unique across the
   feeders and daemons of one soak, not cryptographically strong:
   seed from the wall clock and the pid, then draw 30-bit chunks. *)
let rng =
  lazy
    (Random.State.make
       [|
         int_of_float (Unix.gettimeofday () *. 1e6) land 0x3fffffff;
         Unix.getpid ();
         Unix.getppid ();
       |])

let rng_lock = Mutex.create ()

let hex_bytes n =
  Mutex.lock rng_lock;
  let st = Lazy.force rng in
  let b = Buffer.create (2 * n) in
  for _ = 1 to n do
    Buffer.add_string b (Printf.sprintf "%02x" (Random.State.int st 256))
  done;
  Mutex.unlock rng_lock;
  Buffer.contents b

let rec make () =
  let trace_id = hex_bytes 16 and span_id = hex_bytes 8 in
  (* The spec reserves all-zero ids as "absent". *)
  if trace_id = String.make 32 '0' || span_id = String.make 16 '0' then make ()
  else { trace_id; span_id }

let child t = { t with span_id = (make ()).span_id }

let to_traceparent t = Printf.sprintf "00-%s-%s-01" t.trace_id t.span_id

let is_hex s = String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let of_traceparent s =
  let s = String.trim s in
  match String.split_on_char '-' s with
  | [ version; trace_id; span_id; _flags ]
    when String.length version = 2
         && is_hex version && version <> "ff"
         && String.length trace_id = 32
         && is_hex trace_id
         && trace_id <> String.make 32 '0'
         && String.length span_id = 16
         && is_hex span_id
         && span_id <> String.make 16 '0' ->
    Ok { trace_id; span_id }
  | _ -> Error (Printf.sprintf "bad traceparent %S" s)

let preamble t = Printf.sprintf "%s %s\n" magic (to_traceparent t)

let max_preamble_bytes = 128

let input_preamble ic =
  let b = Buffer.create 64 in
  let rec go () =
    if Buffer.length b < max_preamble_bytes - String.length magic then
      match input_char ic with
      | c ->
        Buffer.add_char b c;
        if c <> '\n' then go ()
      | exception (End_of_file | Sys_error _) -> ()
  in
  go ();
  Buffer.contents b

let of_preamble_line line =
  let line = String.trim line in
  let mlen = String.length magic in
  if String.length line <= mlen || String.sub line 0 mlen <> magic then
    Error (Printf.sprintf "bad trace-context preamble %S" line)
  else of_traceparent (String.sub line mlen (String.length line - mlen))
