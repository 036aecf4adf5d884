module Event = Dmm_obs.Event
module Codec = Dmm_obs.Codec

type entry = { clock : int; event : Event.t }

(* --- JSONL parsing ---------------------------------------------------------
   The [Jsonl_sink] format is flat: one object per line, integer fields plus
   the ["ev"] tag, no nesting and no escapes — a hand-rolled splitter is
   enough and keeps the checker dependency-free. *)

let strip_quotes s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2) else s

exception Malformed of string

let parse_line line =
  let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt in
  let line = String.trim line in
  let n = String.length line in
  if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then fail "not a JSON object";
  let fields =
    String.split_on_char ',' (String.sub line 1 (n - 2))
    |> List.map (fun f ->
           match String.index_opt f ':' with
           | None -> fail "field %S has no colon" f
           | Some i ->
             ( strip_quotes (String.trim (String.sub f 0 i)),
               strip_quotes (String.trim (String.sub f (i + 1) (String.length f - i - 1)))
             ))
  in
  let str k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> fail "missing field %S" k
  in
  let int k =
    match int_of_string_opt (str k) with
    | Some v -> v
    | None -> fail "field %S is not an integer" k
  in
  (* [tag] is absent from streams recorded before the tag field existed;
     treat those allocations as tag-free rather than refusing the file. *)
  let int_default k d =
    match List.assoc_opt k fields with
    | None -> d
    | Some _ -> int k
  in
  let clock = int "t" in
  let event =
    match str "ev" with
    | "alloc" ->
      Event.Alloc
        { payload = int "payload"; gross = int "gross"; tag = int_default "tag" 0;
          addr = int "addr" }
    | "free" -> Event.Free { payload = int "payload"; addr = int "addr" }
    | "split" ->
      Event.Split
        { addr = int "addr"; parent = int "parent"; taken = int "taken";
          remainder = int "remainder" }
    | "coalesce" ->
      Event.Coalesce { addr = int "addr"; merged = int "merged"; absorbed = int "absorbed" }
    | "phase" -> Event.Phase (int "id")
    | "sbrk" -> Event.Sbrk { bytes = int "bytes"; brk = int "brk" }
    | "trim" -> Event.Trim { bytes = int "bytes"; brk = int "brk" }
    | "fit_scan" -> Event.Fit_scan { steps = int "steps" }
    | other -> fail "unknown event kind %S" other
  in
  { clock; event }

(* --- incremental sources ---------------------------------------------------
   One abstraction for every place a stream can come from — a JSONL file, a
   binary-framed file, a socket, a string — pulled one entry at a time so
   the consumers (sanitizer passes, report/profile sinks, the ingest
   daemon) run in memory bounded by a single event, not the file. *)

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* Byte supplier with Unix.read semantics (0 = end of input). Channels and
   in-memory strings both reduce to it, and a sniffed prefix pushes back
   in front of either. *)
type reader = { fill : Bytes.t -> int -> int -> int }

let reader_of_channel ic =
  { fill = (fun b off len -> try input ic b off len with Sys_error m -> parse_fail "%s" m) }

let reader_of_string s =
  let pos = ref 0 in
  {
    fill =
      (fun b off len ->
        let n = min len (String.length s - !pos) in
        Bytes.blit_string s !pos b off n;
        pos := !pos + n;
        n);
  }

let with_prefix prefix r =
  if prefix = "" then r
  else begin
    let pos = ref 0 in
    {
      fill =
        (fun b off len ->
          if !pos < String.length prefix then begin
            let n = min len (String.length prefix - !pos) in
            Bytes.blit_string prefix !pos b off n;
            pos := !pos + n;
            n
          end
          else r.fill b off len);
    }
  end

type source = { next : unit -> entry option; close : unit -> unit }

let next_entry s = s.next ()
let close_source s = s.close ()

(* Far above the ~150 bytes [Event.add_json] writes: a peer that never
   sends a newline must not make the reader buffer its whole stream. *)
let max_line_bytes = 4096

(* JSONL: scan for newlines through a fixed chunk window, accumulating the
   current line in one reused buffer — peak memory is one line, whatever
   the file size. Line numbers count every line (blank ones included) so
   parse errors point at the offending line of the actual file. *)
let jsonl_source ?path ?(close = ignore) r =
  let with_path m =
    match path with None -> m | Some p -> Printf.sprintf "%s: %s" p m
  in
  let chunk = Bytes.create 65536 in
  let chunk_pos = ref 0 and chunk_len = ref 0 in
  let line = Buffer.create 256 in
  let lineno = ref 0 in
  let eof = ref false in
  let check_length extra =
    if Buffer.length line + extra > max_line_bytes then
      parse_fail "%s"
        (with_path
           (Printf.sprintf "line %d: longer than %d bytes" (!lineno + 1) max_line_bytes))
  in
  (* Some (line) | None at end of input. *)
  let next_line () =
    if !eof then None
    else begin
      let rec scan i =
        if i >= !chunk_len then begin
          check_length (!chunk_len - !chunk_pos);
          Buffer.add_subbytes line chunk !chunk_pos (!chunk_len - !chunk_pos);
          chunk_pos := 0;
          chunk_len := r.fill chunk 0 (Bytes.length chunk);
          if !chunk_len = 0 then begin
            eof := true;
            if Buffer.length line = 0 then None
            else begin
              incr lineno;
              let l = Buffer.contents line in
              Buffer.clear line;
              Some l
            end
          end
          else scan 0
        end
        else if Bytes.unsafe_get chunk i = '\n' then begin
          check_length (i - !chunk_pos);
          Buffer.add_subbytes line chunk !chunk_pos (i - !chunk_pos);
          chunk_pos := i + 1;
          incr lineno;
          let l = Buffer.contents line in
          Buffer.clear line;
          Some l
        end
        else scan (i + 1)
      in
      scan !chunk_pos
    end
  in
  let rec next () =
    match next_line () with
    | None -> None
    | Some l ->
      if String.trim l = "" then next ()
      else (
        match parse_line l with
        | entry -> Some entry
        | exception Malformed m -> parse_fail "%s" (with_path (Printf.sprintf "line %d: %s" !lineno m)))
  in
  { next; close }

(* Binary: chunk-at-a-time through a reused growable payload buffer. Each
   chunk's checksum and first-clock are verified before any event in it is
   surfaced; end of input without the trailer is reported as truncation. *)
let binary_source ?path ?(close = ignore) r =
  let with_path m =
    match path with None -> m | Some p -> Printf.sprintf "%s: %s" p m
  in
  let fail fmt = Printf.ksprintf (fun m -> parse_fail "%s" (with_path m)) fmt in
  let head = Bytes.create (max Codec.magic_bytes Codec.header_bytes) in
  let payload = ref (Bytes.create 65536) in
  let payload_s = ref "" in
  let pos = ref 0 and limit = ref 0 in
  let remaining = ref 0 in
  let chunk_first = ref 0 in
  let first_of_chunk = ref false in
  let last_clock = ref (-1) in (* the last decoded event's *)
  let total = ref 0 in
  let seen_magic = ref false in
  let finished = ref false in
  (* really-read [n] bytes into [b]; returns false on clean EOF at offset
     0, fails on a partial read. *)
  let read_exact b n ~what =
    let rec go off =
      if off = n then true
      else begin
        let k = r.fill b off (n - off) in
        if k = 0 then
          if off = 0 then false else fail "truncated %s (%d of %d bytes)" what off n
        else go (off + k)
      end
    in
    go 0
  in
  (* The payload buffer grows as bytes arrive, never to the length a
     header claims: a forged length costs at most twice the bytes sent. *)
  let rec read_payload off n =
    if off < n then begin
      if off = Bytes.length !payload then
        payload := Bytes.extend !payload 0 (min (n - off) off);
      match r.fill !payload off (min n (Bytes.length !payload) - off) with
      | 0 -> fail "truncated chunk payload (%d of %d bytes)" off n
      | k -> read_payload (off + k) n
    end
  in
  let read_magic () =
    if not (read_exact head Codec.magic_bytes ~what:"magic") then
      fail "empty stream (missing %S magic)" Codec.magic;
    let m = Bytes.sub_string head 0 (String.length Codec.magic) in
    if m <> Codec.magic then fail "not a binary trace (bad magic %S)" m;
    let v = Char.code (Bytes.get head (String.length Codec.magic)) in
    if v <> 1 && v <> Codec.version then fail "unsupported binary trace version %d" v;
    (* Version 1 predates the feature word. Version 2 declares its
       features up front so an old reader fails here rather than
       mid-stream on an unknown tag. *)
    if v >= 2 then begin
      if not (read_exact head Codec.feature_bytes ~what:"feature word") then
        fail "truncated feature word (0 of %d bytes)" Codec.feature_bytes;
      let features = Codec.get_u32 (Bytes.unsafe_to_string head) 0 in
      if features land lnot Codec.supported_features <> 0 then
        fail "unsupported feature bits 0x%x in the stream header"
          (features land lnot Codec.supported_features)
    end;
    seen_magic := true
  in
  (* Load the next chunk; false when the trailer has been consumed. *)
  let next_chunk () =
    if not (read_exact head Codec.header_bytes ~what:"chunk header") then
      fail "truncated stream (missing end-of-stream trailer)";
    let h =
      try Codec.read_header (Bytes.unsafe_to_string head) ~pos:0
      with Codec.Corrupt m -> fail "%s" m
    in
    if Codec.is_trailer h then begin
      if h.Codec.h_first_clock <> !total then
        fail "trailer records %d events but %d were decoded" h.Codec.h_first_clock !total;
      (* Anything after the trailer is not part of the stream. *)
      if r.fill head 0 1 <> 0 then fail "trailing bytes after the end-of-stream trailer";
      finished := true;
      false
    end
    else begin
      if h.Codec.h_count = 0 then fail "chunk of %d bytes holds no events" h.Codec.h_len;
      read_payload 0 h.Codec.h_len;
      payload_s := Bytes.unsafe_to_string !payload;
      if Codec.fnv32 !payload_s 0 h.Codec.h_len <> h.Codec.h_crc then
        fail "chunk checksum mismatch (%d events at clock %d)" h.Codec.h_count
          h.Codec.h_first_clock;
      pos := 0;
      limit := h.Codec.h_len;
      remaining := h.Codec.h_count;
      chunk_first := h.Codec.h_first_clock;
      first_of_chunk := true;
      true
    end
  in
  let rec next () =
    if !finished then None
    else if not !seen_magic then begin
      read_magic ();
      next ()
    end
    else if !remaining = 0 then if next_chunk () then next () else None
    else begin
      let event =
        try Codec.read_event !payload_s ~pos ~limit:!limit ~clock:last_clock
        with Codec.Corrupt m -> fail "%s" m
      in
      let clock = !last_clock in
      if !first_of_chunk && clock <> !chunk_first then
        fail "chunk header clock %d disagrees with its first event's clock %d"
          !chunk_first clock;
      first_of_chunk := false;
      incr total;
      decr remaining;
      if !remaining = 0 && !pos <> !limit then
        fail "chunk payload has %d undecoded trailing bytes" (!limit - !pos);
      Some { clock; event }
    end
  in
  { next; close }

(* Sniff the first four bytes: the binary magic, or the start of JSONL
   text (every JSONL stream opens with '{'). Works on unseekable inputs
   (sockets) by pushing the sniffed bytes back in front of the reader. *)
let sniff_source ?path ?close r =
  let b = Bytes.create 4 in
  let rec fill off =
    if off = 4 then off
    else begin
      let k = r.fill b off (4 - off) in
      if k = 0 then off else fill (off + k)
    end
  in
  let n = fill 0 in
  let prefix = Bytes.sub_string b 0 n in
  if prefix = Codec.magic then binary_source ?path ?close (with_prefix prefix r)
  else jsonl_source ?path ?close (with_prefix prefix r)

let source_of_string ?path s = sniff_source ?path (reader_of_string s)

(* Count every byte the source consumes, exactly once: the counter wraps
   outside any pushed-back prefix, so replayed prefix bytes are counted
   as they flow past, while the bytes [sniff_source] peeks (and pushes
   back internally, below this wrapper) are counted at the peek only. *)
let counted count r =
  {
    fill =
      (fun b off len ->
        let n = r.fill b off len in
        count := !count + n;
        n);
  }

let source_of_channel ?path ?(prefix = "") ?count ic =
  let r = with_prefix prefix (reader_of_channel ic) in
  let r = match count with None -> r | Some c -> counted c r in
  sniff_source ?path r

let source_of_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic -> (
    match sniff_source ~path ~close:(fun () -> close_in_noerr ic) (reader_of_channel ic) with
    | src -> Ok src
    | exception Parse_error m ->
      close_in_noerr ic;
      Error m)

let file_format path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
    let b = Bytes.create 4 in
    let n = try input ic b 0 4 with Sys_error _ -> 0 in
    close_in_noerr ic;
    if n = 4 && Bytes.to_string b = Codec.magic then Ok `Binary else Ok `Jsonl

let fold_source src ~init ~f =
  (* One span per streamed pass — under `dmm explore --check --trace-self`
     the sanitizer's stream consumption shows up as its own bar. *)
  Dmm_obs.Span.with_span "stream.fold" @@ fun () ->
  let rec go acc =
    match src.next () with
    | None -> Ok acc
    | Some e -> go (f acc e)
  in
  let r = try go init with Parse_error m -> Error m in
  src.close ();
  r

let iter_source src ~f =
  fold_source src ~init:0
    ~f:(fun n e ->
      f e;
      n + 1)

(* --- stream integrity ------------------------------------------------------
   The probe's logical clock ticks exactly once per emitted event, so a
   faithful record carries clocks 0,1,2,…  Any gap, duplicate or disorder
   proves events were lost or rearranged; in that case invariant checking
   would report phantom violations (e.g. a dropped Free makes the next reuse
   of the address look like a live-range overlap), so the sanitizer reports
   a single [incomplete-stream] finding and skips the heap passes.  A
   truncated *tail* leaves a gap-free prefix and is checked normally: every
   heap invariant here is prefix-closed. *)

let clock_gap ~clock ~position =
  Diag.vf ~index:clock "incomplete-stream"
    "event clock %d found at position %d: the stream is not a gap-free record \
     (events lost, duplicated or reordered); heap invariant and conformance \
     passes skipped to avoid phantom findings"
    clock position
