(* Structured one-line-JSON access log for the ingest daemon.

   One line per finished connection, flat JSON so the same hand-rolled
   field scanners that read [Jsonl_sink] streams and /statusz can read
   it. Writers run on worker domains; a mutex serialises whole lines so
   two connections never interleave mid-record. *)

type value = S of string | I of int | F of float | B of bool

type t = { oc : out_channel; lock : Mutex.t; owned : bool }

let of_channel oc = { oc; lock = Mutex.create (); owned = false }

let open_file path =
  match open_out path with
  | exception Sys_error m -> Error m
  | oc -> Ok { oc; lock = Mutex.create (); owned = true }

let render fields =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":" (Json.escape k));
      match v with
      | S s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (Json.escape s))
      | I n -> Buffer.add_string b (string_of_int n)
      | F f -> Buffer.add_string b (Printf.sprintf "%.3f" f)
      | B x -> Buffer.add_string b (if x then "true" else "false"))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let write t fields =
  let line = render fields in
  Mutex.lock t.lock;
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  Mutex.unlock t.lock

let close t =
  Mutex.lock t.lock;
  if t.owned then close_out_noerr t.oc else flush t.oc;
  Mutex.unlock t.lock

let iso8601 time =
  let tm = Unix.gmtime time in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
    (int_of_float (Float.rem (time *. 1000.0) 1000.0))
