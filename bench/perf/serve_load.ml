(* The ingest daemon under load: the binary event streams it is fed, a
   [dmm serve] child process, and the closed-loop feeder.

   The feeder opens one connection per stream, writes the whole stream,
   half-closes and waits for the one-line reply before sending the next:
   each connection is a caller that waits for its answer (a closed loop),
   so a slow daemon receives less load instead of a growing queue. *)

module Scenario = Dmm_workloads.Scenario
module Replay = Dmm_trace.Replay
module Probe = Dmm_obs.Probe
module Binary_sink = Dmm_obs.Binary_sink

type stream = { label : string; bytes : string; events : int }

(* Write a stream through [Binary_sink] into a temporary file under [dir]
   and read it back. *)
let capture ~dir ~label write =
  let path = Filename.concat dir (Printf.sprintf "stream-%d.bin" (Unix.getpid ())) in
  let oc = open_out_bin path in
  let sink = Binary_sink.create oc in
  write sink;
  Binary_sink.finish sink;
  close_out oc;
  let bytes = Measure.read_file path in
  Sys.remove path;
  { label; bytes; events = Binary_sink.events sink }

(* Replay [trace] on a fresh manager with a binary export attached: the
   stream a client of the daemon would send for that run. *)
let encode ~dir ~label trace (make : Scenario.maker) =
  capture ~dir ~label (fun sink ->
      let probe = Probe.create () in
      Binary_sink.attach probe sink;
      Replay.run ~probe trace (make ~probe ()))

(* A stream with no events: what the daemon's last connection carries,
   after the measurements that need it alive are taken. *)
let empty_stream ~dir = capture ~dir ~label:"empty" ignore

type daemon = { pid : int; sock : string; out_path : string; err_path : string }

(* Daemons started and not reaped yet: [kill_all] stops them when a run
   ends early (an exception, or SIGINT/SIGTERM). *)
let running : daemon list ref = ref []
let forget d = running := List.filter (fun x -> x.pid <> d.pid) !running

(* Start [dmm serve] on a Unix socket under [dir]. It exits by itself
   after [exit_after] connections; OCAMLRUNPARAM=v=0x400 makes the runtime
   print its GC totals on that exit. *)
let start ?access_log ~dmm ~dir ~exit_after () =
  let name = Printf.sprintf "serve-%d-%d" (Unix.getpid ()) exit_after in
  let sock = Filename.concat dir (name ^ ".sock") in
  let out_path = Filename.concat dir (name ^ ".out") in
  let err_path = Filename.concat dir (name ^ ".err") in
  let fd path = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let out_fd = fd out_path and err_fd = fd err_path in
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let args =
    [ dmm; "serve"; "--listen"; sock; "--jobs"; "2"; "--exit-after"; string_of_int exit_after ]
    @ match access_log with Some p -> [ "--access-log"; p ] | None -> []
  in
  let pid = Unix.create_process_env dmm (Array.of_list args) env Unix.stdin out_fd err_fd in
  Unix.close out_fd;
  Unix.close err_fd;
  let d = { pid; sock; out_path; err_path } in
  running := d :: !running;
  d

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !running;
  running := []

(* The daemon may still be binding its socket when the first stream
   goes out: retry a refused connection for up to five seconds. *)
let connect d =
  let deadline = Measure.now_ns () + 5_000_000_000 in
  let rec go () =
    let s = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect s (ADDR_UNIX d.sock) with
    | () -> s
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) when Measure.now_ns () < deadline ->
      Unix.close s;
      Unix.sleepf 0.01;
      go ()
    | exception e ->
      Unix.close s;
      raise e
  in
  go ()

let rec write_all s bytes off =
  if off < String.length bytes then
    write_all s bytes (off + Unix.write_substring s bytes off (String.length bytes - off))

let read_reply s =
  let b = Buffer.create 64 and chunk = Bytes.create 256 in
  let rec go () =
    match Unix.read s chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
  in
  go ();
  String.trim (Buffer.contents b)

(* Send one stream and return the daemon's reply with the time from
   [connect] to the reply. Under the span recorder, the connection's
   three phases are children of one [stream] span on the feeder's lane. *)
let send ?(parent = 0) ~lane d st =
  let t0 = Measure.now_ns () in
  let reply =
    Spans.span ~parent ~lane "stream" @@ fun sid ->
    let s = Spans.span ~parent:sid ~lane "connect" (fun _ -> connect d) in
    Fun.protect ~finally:(fun () -> Unix.close s) @@ fun () ->
    Spans.span ~parent:sid ~lane "send" (fun _ ->
        write_all s st.bytes 0;
        Unix.shutdown s SHUTDOWN_SEND);
    Spans.span ~parent:sid ~lane "reply" (fun _ -> read_reply s)
  in
  (reply, Measure.seconds_since t0)

let expected_reply st = Printf.sprintf "ok %d events, 0 diagnostics" st.events

type sent = { stream : stream; reply : string; latency_s : float }

let ok r = r.reply = expected_reply r.stream

(* One round of the closed loop: connection [c] sends [orders.(c)] in
   order, each on its own thread, and the round ends when every
   connection has its last reply. *)
let round ?parent d orders =
  let results = Array.make (Array.length orders) [] in
  let feeder c () =
    results.(c) <-
      List.map
        (fun st ->
          match send ?parent ~lane:(1000 + c) d st with
          | reply, latency_s -> { stream = st; reply; latency_s }
          | exception (Unix.Unix_error _ as e) ->
            { stream = st; reply = "error: " ^ Printexc.to_string e; latency_s = 0.0 })
        orders.(c)
  in
  let threads = Array.mapi (fun c _ -> Thread.create (feeder c) ()) orders in
  Array.iter Thread.join threads;
  List.concat (Array.to_list results)

(* Wait for the daemon to exit after its last connection and read what it
   printed: its own totals line and the runtime's GC report. *)
type exit_report = { status_ok : bool; done_line : string; gc : (string * float) list }

let wait d =
  let _, status = Unix.waitpid [] d.pid in
  forget d;
  let out = Measure.read_file d.out_path and err = Measure.read_file d.err_path in
  let done_line =
    List.find_opt (String.starts_with ~prefix:"serve: done:") (String.split_on_char '\n' out)
    |> Option.value ~default:""
  in
  let gc =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i -> (
          let k = String.sub l 0 i and v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          match float_of_string_opt v with Some f -> Some (k, f) | None -> None)
        | None -> None)
      (String.split_on_char '\n' err)
  in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ d.out_path; d.err_path ];
  { status_ok = status = Unix.WEXITED 0; done_line; gc }
