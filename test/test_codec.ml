(* The binary trace codec: varint/event round trips, chunked file framing
   (including the sniffing loader), the differential JSONL/binary
   properties behind `dmm convert`, the decoders' allocation bound on
   forged lengths and unterminated lines, and byte-mutation fuzzes of the
   binary and JSONL decoders and of the trace-context preamble. *)

module Event = Dmm_obs.Event
module Codec = Dmm_obs.Codec
module Binary_sink = Dmm_obs.Binary_sink
module Jsonl_sink = Dmm_obs.Jsonl_sink
module Stream = Dmm_check.Stream
module Trace_ctx = Dmm_obs.Trace_ctx

(* --- generators ---------------------------------------------------------- *)

(* Field values mix small magnitudes (the common case), negatives (zigzag
   low bytes) and full-width ints (9-byte varints). *)
let gen_field st =
  let open QCheck.Gen in
  (oneof
     [
       int_range (-4096) 4096;
       int_range 0 (1 lsl 30);
       oneofl [ 0; 1; -1; max_int; min_int; 1 lsl 62; -(1 lsl 62) ];
     ])
    st

let gen_event st =
  let f () = gen_field st in
  match QCheck.Gen.int_bound 7 st with
  | 0 -> Event.Alloc { payload = f (); gross = f (); tag = f (); addr = f () }
  | 1 -> Event.Free { payload = f (); addr = f () }
  | 2 -> Event.Split { addr = f (); parent = f (); taken = f (); remainder = f () }
  | 3 -> Event.Coalesce { addr = f (); merged = f (); absorbed = f () }
  | 4 -> Event.Phase (f ())
  | 5 -> Event.Sbrk { bytes = f (); brk = f () }
  | 6 -> Event.Trim { bytes = f (); brk = f () }
  | _ -> Event.Fit_scan { steps = f () }

let gen_events = QCheck.Gen.(list_size (1 -- 200) gen_event)

let arb_stream =
  QCheck.make
    ~print:(fun (chunk, evs) ->
      Printf.sprintf "chunk_events=%d, %d events" chunk (List.length evs))
    QCheck.Gen.(pair (1 -- 64) gen_events)

(* --- helpers ------------------------------------------------------------- *)

(* What [Binary_sink] writes for [events]. *)
let encode ?chunk_events events =
  Temp_file.with_written
    (fun oc ->
      let sink = Binary_sink.create ?chunk_events oc in
      List.iteri (fun clock e -> Binary_sink.on_event sink clock e) events;
      Binary_sink.finish sink)
    Temp_file.read

let entries_of src =
  Stream.fold_source src ~init:[] ~f:(fun acc e -> e :: acc) |> Result.map List.rev

(* Where the decoder is the subject, it reads a string; [load] reads a
   file through [Stream.source_of_file], whose errors carry the path. *)
let decode_entries s = entries_of (Stream.source_of_string s)
let load path = Result.bind (Stream.source_of_file path) entries_of
let numbered events = List.mapi (fun clock event -> { Stream.clock; event }) events

let jsonl_of events =
  String.concat ""
    (List.mapi (fun clock e -> Event.to_json ~clock e ^ "\n") events)

(* --- unit cases ---------------------------------------------------------- *)

let varint_extremes () =
  let values =
    [ 0; 1; -1; 63; -64; 64; -65; 300; -300; 1 lsl 20; max_int; min_int;
      max_int - 1; min_int + 1 ]
  in
  let b = Buffer.create 64 in
  List.iter (Codec.add_varint b) values;
  let s = Buffer.contents b in
  let pos = ref 0 in
  List.iter
    (fun v ->
      let d = Codec.read_varint s ~pos ~limit:(String.length s) in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v d)
    values;
  Alcotest.(check int) "all bytes consumed" (String.length s) !pos;
  (* A gap-free clock sequence costs one byte per event. *)
  let b = Buffer.create 8 in
  Codec.add_varint b 0;
  Alcotest.(check int) "zero delta is one byte" 1 (Buffer.length b)

let empty_stream () =
  let data = encode [] in
  (match decode_entries data with
  | Ok l -> Alcotest.(check int) "no entries" 0 (List.length l)
  | Error m -> Alcotest.fail m);
  (* magic (5) + trailer header (20), nothing else *)
  Alcotest.(check int) "file is magic + trailer"
    (Codec.magic_bytes + Codec.feature_bytes + Codec.header_bytes)
    (String.length data)

let format_sniffing () =
  let events = [ Event.Phase 1; Event.Sbrk { bytes = 64; brk = 64 } ] in
  let data = encode events in
  (* In-memory sniffing picks the right decoder for both encodings. *)
  let from_bin = Stream.fold_source (Stream.source_of_string data) ~init:0 ~f:(fun n _ -> n + 1) in
  Alcotest.(check (result int string)) "binary sniffed" (Ok 2) from_bin;
  let from_jsonl =
    Stream.fold_source (Stream.source_of_string (jsonl_of events)) ~init:0 ~f:(fun n _ -> n + 1)
  in
  Alcotest.(check (result int string)) "jsonl sniffed" (Ok 2) from_jsonl;
  Temp_file.with_data data (fun p ->
      Alcotest.(check bool) "file_format binary" true (Stream.file_format p = Ok `Binary));
  Temp_file.with_data (jsonl_of events) (fun p ->
      Alcotest.(check bool) "file_format jsonl" true (Stream.file_format p = Ok `Jsonl))

let jsonl_line_numbers () =
  (* The streaming JSONL reader reports the offending line of the file,
     blank lines included in the count. *)
  let text = "{\"t\":0,\"ev\":\"phase\",\"id\":1}\n\nnot json\n" in
  match decode_entries text with
  | Ok _ -> Alcotest.fail "garbage line must not parse"
  | Error m ->
    Alcotest.(check bool) (Printf.sprintf "line number in %S" m) true
      (String.length m >= 7 && String.sub m 0 7 = "line 3:")

(* Read from files: the one case of [Stream.source_of_file]. *)
let trailer_guard () =
  let events = [ Event.Phase 1; Event.Phase 2; Event.Phase 3 ] in
  let data = encode events in
  (* Trailing bytes after the trailer are an error, not silently ignored. *)
  Temp_file.with_data (data ^ "x") (fun p ->
      match load p with
      | Ok _ -> Alcotest.fail "trailing bytes must be rejected"
      | Error m ->
        Alcotest.(check bool) (Printf.sprintf "mentions trailer: %s" m) true
          (String.length m > 0));
  (* A missing trailer (clean EOF at a chunk boundary) is truncation. *)
  let cut = String.length data - Codec.header_bytes in
  Temp_file.with_data (String.sub data 0 cut) (fun p ->
      match load p with
      | Ok _ -> Alcotest.fail "missing trailer must be rejected"
      | Error _ -> ())

(* --- properties ---------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"binary file round trip: decode (encode s) = s" ~count:60
    arb_stream (fun (chunk_events, events) ->
      match decode_entries (encode ~chunk_events events) with
      | Error m -> QCheck.Test.fail_reportf "load failed: %s" m
      | Ok l -> l = numbered events)

let prop_jsonl_binary_agree =
  QCheck.Test.make
    ~name:"jsonl and binary encodings decode to the same stream" ~count:40 arb_stream
    (fun (chunk_events, events) ->
      let from_bin = decode_entries (encode ~chunk_events events) in
      let from_jsonl = decode_entries (jsonl_of events) in
      match (from_bin, from_jsonl) with
      | Ok b, Ok j -> b = j
      | Error m, _ | _, Error m -> QCheck.Test.fail_reportf "decode failed: %s" m)

let prop_truncation_detected =
  QCheck.Test.make
    ~name:"any strict truncation past the magic is an error" ~count:60
    (QCheck.make
       ~print:(fun ((c, evs), frac) ->
         Printf.sprintf "chunk_events=%d, %d events, frac=%.3f" c (List.length evs) frac)
       QCheck.Gen.(pair (pair (1 -- 64) gen_events) (float_bound_inclusive 1.)))
    (fun ((chunk_events, events), frac) ->
      let data = encode ~chunk_events events in
      let len = String.length data in
      (* Below 5 bytes the magic itself is cut and the sniffing loader
         legitimately treats the prefix as (empty or garbage) JSONL. *)
      let cut = Codec.magic_bytes + int_of_float (frac *. float_of_int (len - Codec.magic_bytes)) in
      let cut = min cut (len - 1) in
      match decode_entries (String.sub data 0 cut) with
      | Ok _ -> false
      | Error _ -> true)

let prop_corruption_detected =
  QCheck.Test.make
    ~name:"single-byte payload corruption is caught by the chunk checksum"
    ~count:60
    (QCheck.make
       ~print:(fun ((c, evs), (pick, bit)) ->
         Printf.sprintf "chunk_events=%d, %d events, pick=%.3f, bit=%d" c
           (List.length evs) pick bit)
       QCheck.Gen.(
         pair (pair (1 -- 64) gen_events) (pair (float_bound_inclusive 1.) (0 -- 7))))
    (fun ((chunk_events, events), (pick, bit)) ->
      let data = encode ~chunk_events events in
      (* Flip one bit inside the first chunk's payload. FNV-1a's
         per-byte steps are bijections on the running state, so a
         same-length payload with one byte changed can never keep its
         checksum — the property holds for every flip, not just most. *)
      let h = Codec.read_header data ~pos:(Codec.magic_bytes + Codec.feature_bytes) in
      let payload_off = Codec.magic_bytes + Codec.feature_bytes + Codec.header_bytes in
      let idx = payload_off + int_of_float (pick *. float_of_int (h.Codec.h_len - 1)) in
      let b = Bytes.of_string data in
      Bytes.set b idx (Char.chr (Char.code (Bytes.get b idx) lxor (1 lsl bit)));
      match decode_entries (Bytes.to_string b) with Ok _ -> false | Error _ -> true)

let prop_jsonl_sink_buffering =
  QCheck.Test.make
    ~name:"buffered Jsonl_sink writes exactly the to_json lines" ~count:40
    (QCheck.make ~print:(fun evs -> Printf.sprintf "%d events" (List.length evs)) gen_events)
    (fun events ->
      let written =
        Temp_file.with_written
          (fun oc ->
            let sink = Jsonl_sink.create oc in
            List.iteri (fun clock e -> Jsonl_sink.on_event sink clock e) events;
            Jsonl_sink.flush sink)
          Temp_file.read
      in
      written = jsonl_of events)

(* ------------------------------------------------------------------ *)
(* version-1 backward compatibility                                    *)

(* Chunk framing is identical across versions; only the prefix differs
   (v1 has no feature word). Rewriting a v2 file's prefix to v1 therefore
   produces exactly the bytes a version-1 writer emitted. *)
let to_v1 data =
  let skip = Codec.magic_bytes + Codec.feature_bytes in
  let b = Buffer.create (String.length data - Codec.feature_bytes) in
  Codec.add_magic ~version:1 b;
  Buffer.add_substring b data skip (String.length data - skip);
  Buffer.contents b

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let v1_prefix_pin () =
  (* The historic 5-byte prefix, byte for byte — what every pre-existing
     DMMT file on disk starts with. *)
  let b = Buffer.create 8 in
  Codec.add_magic ~version:1 b;
  Alcotest.(check string) "v1 prefix" "DMMT\001" (Buffer.contents b);
  let b = Buffer.create 16 in
  Codec.add_magic b;
  let s = Buffer.contents b in
  Alcotest.(check int) "v2 prefix length" (Codec.magic_bytes + Codec.feature_bytes)
    (String.length s);
  Alcotest.(check string) "v2 magic+version" "DMMT\002" (String.sub s 0 5);
  Alcotest.(check int) "v2 feature word" Codec.supported_features (Codec.get_u32 s 5)

(* A version-1 stream decodes to the exact entry sequence its v2
   re-encoding does. *)
let prop_v1_decodes_identically =
  QCheck.Test.make ~name:"version-1 streams decode identically" ~count:100
    (QCheck.make
       ~print:(fun (chunk, evs) ->
         Printf.sprintf "chunk_events=%d, %d events" chunk (List.length evs))
       QCheck.Gen.(pair (1 -- 64) gen_events))
    (fun (chunk_events, events) ->
      let data = encode ~chunk_events events in
      let v2 = decode_entries data in
      let v1 = decode_entries (to_v1 data) in
      match (v2, v1) with
      | Ok a, Ok b -> a = b
      | Error m, _ | _, Error m -> QCheck.Test.fail_reportf "decode failed: %s" m)

(* Tags 8-10 and the JSONL kinds ptr_write, root_add and root_remove
   were object-graph events. The format no longer has them, so a stream
   that carries one, under either prefix, fails on one line like any
   unknown tag or kind. The bytes are built by hand: one chunk holding
   the event with the fields its writer gave it, then the trailer. *)
let v1_rejects_graph_tags () =
  let stream ~prefix tag =
    let fields = if tag = 8 then [ 16; 0; -1; 32 ] else [ 16 ] in
    let payload = Buffer.create 16 in
    Buffer.add_char payload (Char.chr tag);
    List.iter (Codec.add_varint payload) (0 :: fields);
    let payload = Buffer.contents payload in
    let len = String.length payload in
    let b = Buffer.create 64 in
    Buffer.add_string b prefix;
    Codec.add_header b
      { Codec.h_len = len; h_count = 1; h_first_clock = 0; h_crc = Codec.fnv32 payload 0 len };
    Buffer.add_string b payload;
    Codec.add_header b { Codec.h_len = 0; h_count = 0; h_first_clock = 1; h_crc = 0 };
    Buffer.contents b
  in
  List.iter
    (fun tag ->
      List.iter
        (fun (version, prefix) ->
          Alcotest.(check (result int string))
            (Printf.sprintf "%s, tag %d" version tag)
            (Error (Printf.sprintf "unknown event tag %d" tag))
            (Result.map List.length (decode_entries (stream ~prefix tag))))
        [ ("v1", "DMMT\001"); ("v2", "DMMT\002\001\000\000\000") ])
    [ 8; 9; 10 ];
  Alcotest.(check (result int string)) "jsonl root_add"
    (Error "line 1: unknown event kind \"root_add\"")
    (Result.map List.length (decode_entries "{\"t\":0,\"ev\":\"root_add\",\"addr\":16}\n"))

let unknown_feature_bits_rejected () =
  let b = Bytes.of_string (encode [ Event.Phase 1 ]) in
  (* Set a feature bit no reader version understands yet. *)
  Bytes.set b Codec.magic_bytes
    (Char.chr (Char.code (Bytes.get b Codec.magic_bytes) lor 0x80));
  match decode_entries (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "unknown feature bits accepted"
  | Error m ->
    Alcotest.(check bool) (Printf.sprintf "error names the bits (%s)" m) true
      (contains ~needle:"unsupported feature bits" m)

(* --- hostile lengths ---------------------------------------------------------
   A decoder allocates in proportion to the bytes it has been sent, never
   to a length the sender claims: each repro below is refused with a
   one-line error after well under 1 MiB of allocation. *)

let allocation_of f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

let check_under_1mib what bytes =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f bytes allocated, under 1 MiB" what bytes)
    true (bytes < 1048576.)

let decode s = Stream.iter_source (Stream.source_of_string s) ~f:ignore

let forged_chunk_length () =
  (* Magic, version 2, feature word 0, then a chunk header claiming a
     1 GiB payload for one event, and no payload at all. *)
  let b = Buffer.create 32 in
  Buffer.add_string b "DMMT\002\000\000\000\000";
  Codec.add_header b { Codec.h_len = 1 lsl 30; h_count = 1; h_first_clock = 0; h_crc = 0 };
  let forged = Buffer.contents b in
  Alcotest.(check int) "29-byte file" 29 (String.length forged);
  let r, bytes = allocation_of (fun () -> decode forged) in
  Alcotest.(check (result int string)) "one-line error"
    (Error "truncated chunk payload (0 of 1073741824 bytes)") r;
  check_under_1mib "forged chunk length" bytes

let unterminated_jsonl_line () =
  let s = "{" ^ String.make (8 lsl 20) 'x' in
  let r, bytes = allocation_of (fun () -> decode s) in
  Alcotest.(check (result int string)) "one-line error"
    (Error "line 1: longer than 4096 bytes") r;
  check_under_1mib "8 MiB JSONL line" bytes

(* The daemon's preamble read: [dmm serve] sniffs the magic, then reads
   the rest of the line with [Trace_ctx.input_preamble]. *)
let read_preamble data =
  Temp_file.with_data data (fun p ->
      In_channel.with_open_bin p (fun ic ->
          let magic = really_input_string ic (String.length Trace_ctx.magic) in
          let line, bytes = allocation_of (fun () -> magic ^ Trace_ctx.input_preamble ic) in
          (line, bytes, In_channel.input_all ic)))

let unterminated_preamble () =
  let line, bytes, _ = read_preamble (Trace_ctx.magic ^ String.make (8 lsl 20) 'x') in
  Alcotest.(check int) "read stops at 128 bytes" 128 (String.length line);
  Alcotest.(check bool) "refused" true (Result.is_error (Trace_ctx.of_preamble_line line));
  check_under_1mib "8 MiB preamble" bytes;
  (* A well-formed preamble is read through its newline and no further. *)
  let c = Trace_ctx.make () in
  let line, _, rest = read_preamble (Trace_ctx.preamble c ^ "{}\n") in
  Alcotest.(check string) "whole line" (Trace_ctx.preamble c) line;
  Alcotest.(check bool) "parses" true (Trace_ctx.of_preamble_line line = Ok c);
  Alcotest.(check string) "stream untouched" "{}\n" rest

(* ------------------------------------------------------------------ *)
(* byte-mutation fuzz                                                  *)

(* What [dmm trace -w drr --quick --seed 1 --binary FILE -m kingsley]
   writes for the trace's first 4,000 events: about 8,000 probe events,
   so two chunks and the trailer. *)
let recorded =
  lazy
    (Dmm_workloads.Experiments.paper_scale := false;
     let trace = Dmm_workloads.Experiments.drr_trace_seed 1 in
     let prefix =
       Dmm_trace.Trace.of_list (List.filteri (fun i _ -> i < 4000) (Dmm_trace.Trace.to_list trace))
     in
     Temp_file.with_written
       (fun oc ->
         let sink = Binary_sink.create oc in
         let probe = Dmm_obs.Probe.create () in
         Binary_sink.attach probe sink;
         Dmm_trace.Replay.run ~probe prefix (Dmm_workloads.Scenario.kingsley ~probe ());
         Binary_sink.finish sink)
       Temp_file.read)

(* The byte ranges of the recorded stream, by what they hold: the magic
   and feature word, each chunk's header and body, and the trailer. *)
let regions data =
  let prefix = Codec.magic_bytes + Codec.feature_bytes in
  let rec chunks pos headers bodies =
    let h = Codec.read_header data ~pos in
    if Codec.is_trailer h then (List.rev headers, List.rev bodies, (pos, Codec.header_bytes))
    else
      let body = pos + Codec.header_bytes in
      chunks (body + h.Codec.h_len) ((pos, Codec.header_bytes) :: headers)
        ((body, h.Codec.h_len) :: bodies)
  in
  let headers, bodies, trailer = chunks prefix [] [] in
  [ ("prefix", [ (0, prefix) ]); ("header", headers); ("body", bodies); ("trailer", [ trailer ]) ]

(* [Smear] sets twelve bytes to 0xff: a varint longer than any int. *)
type byte_mutation =
  | Flip of int
  | Set_byte of char
  | Insert_byte of char
  | Delete_byte
  | Smear
  | Cut

let show_byte_mutation (region, (pick, at), m) =
  Printf.sprintf "%s %.3f/%.3f %s" region pick at
    (match m with
    | Flip bit -> Printf.sprintf "flip bit %d" bit
    | Set_byte c -> Printf.sprintf "set %C" c
    | Insert_byte c -> Printf.sprintf "insert %C" c
    | Delete_byte -> "delete"
    | Smear -> "smear"
    | Cut -> "cut")

let gen_byte_mutations =
  let open QCheck.Gen in
  let kind =
    frequency
      [
        (4, map (fun b -> Flip b) (0 -- 7));
        (3, map (fun c -> Set_byte c) (map Char.chr (0 -- 255)));
        (1, map (fun c -> Insert_byte c) (map Char.chr (0 -- 255)));
        (1, return Delete_byte);
        (1, return Smear);
        (1, return Cut);
      ]
  in
  list_size (1 -- 3)
    (triple
       (oneofl [ "prefix"; "header"; "body"; "trailer" ])
       (pair (float_bound_exclusive 1.) (float_bound_exclusive 1.))
       kind)

(* Apply each mutation at a byte of its region: [pick] chooses the chunk,
   [at] the offset inside it. *)
let mutate_bytes data muts =
  let layout = regions data in
  List.fold_left
    (fun data (region, (pick, at), m) ->
      let ranges = List.assoc region layout in
      let start, len = List.nth ranges (int_of_float (pick *. float_of_int (List.length ranges))) in
      let n = String.length data in
      (* An earlier cut may have removed the region: mutate the last byte. *)
      let i = min (start + int_of_float (at *. float_of_int len)) (n - 1) in
      let with_byte c = String.sub data 0 i ^ String.make 1 c ^ String.sub data (i + 1) (n - i - 1) in
      if n = 0 then data
      else
        match m with
        | Flip bit -> with_byte (Char.chr (Char.code data.[i] lxor (1 lsl bit)))
        | Set_byte c -> with_byte c
        | Insert_byte c -> String.sub data 0 i ^ String.make 1 c ^ String.sub data i (n - i)
        | Delete_byte -> String.sub data 0 i ^ String.sub data (i + 1) (n - i - 1)
        | Smear ->
          let k = min 12 (n - i) in
          String.sub data 0 i ^ String.make k '\xff' ^ String.sub data (i + k) (n - i - k)
        | Cut -> String.sub data 0 i)
    data muts

(* Recompute every chunk's checksum, so a mutated body gets past the
   framing and reaches the event decoder: tags, varints, clock deltas and
   event counts. *)
let reseal data =
  let b = Bytes.of_string data in
  let rec go pos =
    if pos + Codec.header_bytes <= Bytes.length b then
      match Codec.read_header (Bytes.to_string b) ~pos with
      | exception Codec.Corrupt _ -> ()
      | h when Codec.is_trailer h -> ()
      | h ->
        let body = pos + Codec.header_bytes in
        if body + h.Codec.h_len <= Bytes.length b then begin
          let crc = Codec.fnv32 (Bytes.to_string b) body h.Codec.h_len in
          Bytes.set_int32_le b (pos + 16) (Int32.of_int crc);
          go (body + h.Codec.h_len)
        end
  in
  go (Codec.magic_bytes + Codec.feature_bytes);
  Bytes.to_string b

(* Whatever the bytes, decoding ends in [Ok] or a one-line [Error], never
   an exception, and its minor allocation stays within a small multiple of
   the input. ([Gc.minor_words] is exact; the major heap's counters move
   only at collections, and the forged-length cases above bound the
   payload buffer.) *)
let prop_binary_mutations =
  QCheck.Test.make ~name:"mutated binary streams fail on one line" ~count:400
    (QCheck.make
       ~print:(fun (muts, sealed) ->
         String.concat "; " (List.map show_byte_mutation muts)
         ^ if sealed then "; checksums recomputed" else "")
       QCheck.Gen.(pair gen_byte_mutations bool))
    (fun (muts, sealed) ->
      let data = mutate_bytes (Lazy.force recorded) muts in
      let data = if sealed then reseal data else data in
      let before = Gc.minor_words () in
      let result =
        match Stream.iter_source (Stream.source_of_string data) ~f:ignore with
        | exception e -> QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)
        | r -> r
      in
      let words = Gc.minor_words () -. before in
      if words > float_of_int ((4 * String.length data) + 4096) then
        QCheck.Test.fail_reportf "decoding %d bytes allocated %.0f minor words"
          (String.length data) words;
      match result with
      | Ok _ -> true
      | Error m -> m <> "" && not (String.contains m '\n'))

(* --- JSONL and trace-context preamble fuzz ------------------------------------
   Text mutations: a flipped bit, a byte set, inserted or deleted, a cut,
   a run of digits, quotes, commas or spaces (a run of 4,097 or more makes
   the line too long; spaces and zeros can keep it well-formed), and a
   newline removed, with the ones after it, until the line passes the
   4,096-byte limit. *)

type text_mutation =
  | T_flip of int
  | T_set of char
  | T_insert of char
  | T_delete
  | T_cut
  | T_run of char * int
  | T_join

let show_text_mutation (at, m) =
  Printf.sprintf "%.3f %s" at
    (match m with
    | T_flip bit -> Printf.sprintf "flip bit %d" bit
    | T_set c -> Printf.sprintf "set %C" c
    | T_insert c -> Printf.sprintf "insert %C" c
    | T_delete -> "delete"
    | T_cut -> "cut"
    | T_run (c, n) -> Printf.sprintf "run of %d %C" n c
    | T_join -> "join lines")

let show_text_mutations muts = String.concat "; " (List.map show_text_mutation muts)

let gen_text_mutations =
  let open QCheck.Gen in
  (* Bytes the formats are made of, so a mutation often stays parseable;
     any other byte as well. *)
  let byte =
    frequency
      [
        (3, oneofl [ '{'; '}'; '"'; ':'; ','; '-'; '\n'; ' '; '0'; '9'; 'a'; 'D' ]);
        (1, map Char.chr (0 -- 255));
      ]
  in
  let run_len = frequency [ (3, 1 -- 64); (1, 4000 -- 8192) ] in
  let kind =
    frequency
      [
        (3, map (fun b -> T_flip b) (0 -- 7));
        (3, map (fun c -> T_set c) byte);
        (2, map (fun c -> T_insert c) byte);
        (2, return T_delete);
        (1, return T_cut);
        (3, map2 (fun c n -> T_run (c, n)) (oneofl [ '0'; '7'; '"'; ','; ' ' ]) run_len);
        (1, return T_join);
      ]
  in
  list_size (1 -- 3) (pair (float_bound_exclusive 1.) kind)

(* Remove the newlines from [i] on until the line holding [i] is longer
   than 4,096 bytes, or none is left. *)
let join_from data i =
  let n = String.length data in
  let start =
    match String.rindex_from_opt data (min i (n - 1)) '\n' with Some j -> j + 1 | None -> 0
  in
  let b = Buffer.create n in
  Buffer.add_substring b data 0 start;
  let rec go j len =
    if j >= n then ()
    else if data.[j] = '\n' && len <= 4096 then go (j + 1) len
    else begin
      Buffer.add_char b data.[j];
      if len > 4096 then Buffer.add_substring b data (j + 1) (n - j - 1)
      else go (j + 1) (len + 1)
    end
  in
  go start 0;
  Buffer.contents b

let mutate_text data muts =
  List.fold_left
    (fun data (at, m) ->
      let n = String.length data in
      if n = 0 then data
      else
        let i = int_of_float (at *. float_of_int n) in
        let with_byte c =
          String.sub data 0 i ^ String.make 1 c ^ String.sub data (i + 1) (n - i - 1)
        in
        let insert s = String.sub data 0 i ^ s ^ String.sub data i (n - i) in
        match m with
        | T_flip bit -> with_byte (Char.chr (Char.code data.[i] lxor (1 lsl bit)))
        | T_set c -> with_byte c
        | T_insert c -> insert (String.make 1 c)
        | T_delete -> String.sub data 0 i ^ String.sub data (i + 1) (n - i - 1)
        | T_cut -> String.sub data 0 i
        | T_run (c, k) -> insert (String.make k c)
        | T_join -> join_from data i)
    data muts

let one_line = function Ok _ -> true | Error m -> m <> "" && not (String.contains m '\n')

let longest_line s =
  List.fold_left (fun acc l -> max acc (String.length l)) 0 (String.split_on_char '\n' s)

(* What [dmm trace -w drr --quick --seed 1 --jsonl FILE -m kingsley]
   writes for the trace's first 200 events. *)
let recorded_jsonl =
  lazy
    (Dmm_workloads.Experiments.paper_scale := false;
     let trace = Dmm_workloads.Experiments.drr_trace_seed 1 in
     let prefix =
       Dmm_trace.Trace.of_list (List.filteri (fun i _ -> i < 200) (Dmm_trace.Trace.to_list trace))
     in
     Temp_file.with_written
       (fun oc ->
         let sink = Jsonl_sink.create oc in
         let probe = Dmm_obs.Probe.create () in
         Jsonl_sink.attach probe sink;
         Dmm_trace.Replay.run ~probe prefix (Dmm_workloads.Scenario.kingsley ~probe ());
         Jsonl_sink.flush sink)
       Temp_file.read)

(* Whatever the text, the JSONL reader ends in [Ok] or a one-line
   [Error], never an exception; it accepts no line past 4,096 bytes; and
   its minor allocation stays within a small multiple of the input. *)
let prop_jsonl_mutations =
  QCheck.Test.make ~name:"mutated JSONL streams fail on one line" ~count:300
    (QCheck.make ~print:show_text_mutations gen_text_mutations)
    (fun muts ->
      let data = mutate_text (Lazy.force recorded_jsonl) muts in
      let before = Gc.minor_words () in
      let result =
        match Stream.iter_source (Stream.source_of_string data) ~f:ignore with
        | exception e -> QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)
        | r -> r
      in
      let words = Gc.minor_words () -. before in
      if words > float_of_int ((16 * String.length data) + 65536) then
        QCheck.Test.fail_reportf "decoding %d bytes allocated %.0f minor words"
          (String.length data) words;
      (match result with
      | Ok _ when longest_line data > 4096 ->
        QCheck.Test.fail_reportf "accepted a %d-byte line" (longest_line data)
      | _ -> ());
      one_line result)

(* The daemon's read of a mutated preamble line, from a file: peek four
   bytes, and on the magic read the rest of the line with
   [Trace_ctx.input_preamble] and parse it with [of_preamble_line]. The
   read stops at 128 bytes, and parsing the whole mutated line, or what
   was read of it, ends in [Ok] or a one-line [Error]. *)
let prop_preamble_mutations =
  let ctx = Trace_ctx.make () in
  QCheck.Test.make ~name:"mutated trace-context preambles fail on one line" ~count:300
    (QCheck.make ~print:show_text_mutations gen_text_mutations)
    (fun muts ->
      let line = mutate_text (Trace_ctx.preamble ctx) muts in
      let parse l =
        match Trace_ctx.of_preamble_line l with
        | exception e -> QCheck.Test.fail_reportf "parser raised %s" (Printexc.to_string e)
        | r -> r
      in
      one_line (parse line)
      && Temp_file.with_data (line ^ "{\"t\":0,\"ev\":\"phase\",\"id\":1}\n") (fun path ->
             In_channel.with_open_bin path (fun ic ->
                 let head = Bytes.create 4 in
                 let rec peek off =
                   if off >= 4 then off
                   else match input ic head off (4 - off) with 0 -> off | k -> peek (off + k)
                 in
                 let sniff = Bytes.sub_string head 0 (peek 0) in
                 sniff <> Trace_ctx.magic
                 ||
                 let read, bytes =
                   allocation_of (fun () ->
                       match Trace_ctx.input_preamble ic with
                       | exception e ->
                         QCheck.Test.fail_reportf "input_preamble raised %s" (Printexc.to_string e)
                       | rest -> sniff ^ rest)
                 in
                 if String.length read > 128 then
                   QCheck.Test.fail_reportf "read %d bytes of preamble" (String.length read);
                 if bytes >= 1048576. then
                   QCheck.Test.fail_reportf "preamble read allocated %.0f bytes" bytes;
                 one_line (parse read))))

let tests =
  ( "codec",
    [
      Alcotest.test_case "varint extremes" `Quick varint_extremes;
      Alcotest.test_case "empty stream" `Quick empty_stream;
      Alcotest.test_case "format sniffing" `Quick format_sniffing;
      Alcotest.test_case "jsonl line numbers" `Quick jsonl_line_numbers;
      Alcotest.test_case "trailer guards" `Quick trailer_guard;
      Alcotest.test_case "v1 prefix pin" `Quick v1_prefix_pin;
      Alcotest.test_case "v1 rejects graph tags" `Quick v1_rejects_graph_tags;
      Alcotest.test_case "unknown feature bits rejected" `Quick
        unknown_feature_bits_rejected;
      Alcotest.test_case "forged chunk length: bounded allocation" `Quick
        forged_chunk_length;
      Alcotest.test_case "unterminated JSONL line: bounded allocation" `Quick
        unterminated_jsonl_line;
      Alcotest.test_case "unterminated preamble: bounded read" `Quick
        unterminated_preamble;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |]) prop_binary_mutations;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |]) prop_jsonl_mutations;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |]) prop_preamble_mutations;
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [
          prop_roundtrip;
          prop_jsonl_binary_agree;
          prop_truncation_detected;
          prop_corruption_detected;
          prop_jsonl_sink_buffering;
          prop_v1_decodes_identically;
        ] )
