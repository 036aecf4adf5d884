let magic = "DMMT"
let version = 2
let magic_bytes = 5
let feature_bytes = 4
let header_bytes = 20

(* Feature bits carried by version-2 streams in a u32 word right after
   the magic. A version-1 stream has no feature word and implicitly
   declares zero bits. Bit 0 once declared object-graph events; the
   format no longer has them, but every version-2 stream ever written
   sets it, so writers keep setting it and readers keep accepting it. *)
let supported_features = 1

(* Chunks past this are certainly garbage: a length field this large can
   only come from reading non-chunk bytes as a header, and trusting it
   would turn one flipped bit into a gigabyte allocation. *)
let max_chunk_bytes = 1 lsl 30

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* --- varints ---------------------------------------------------------------
   Zigzag first (so small negatives stay small), then LEB128: low 7-bit
   group first, high bit marks continuation. OCaml ints are 63-bit, so a
   varint is at most 9 bytes. *)

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag v = (v lsr 1) lxor (- (v land 1))

let add_varint b n =
  let v = ref (zigzag n) in
  (* The zigzag image of a 63-bit int fills all 63 bits; shift with lsr so
     the loop terminates on the sign-extended values too. *)
  while !v lsr 7 <> 0 do
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char b (Char.unsafe_chr !v)

let rec varint_rest (s : string) (pos : int ref) (limit : int) (v : int) (shift : int) =
  if !pos >= limit then corrupt "truncated varint";
  if shift > 62 then corrupt "varint overflows the integer range";
  let c = Char.code (String.unsafe_get s !pos) in
  incr pos;
  let v = v lor ((c land 0x7f) lsl shift) in
  if c land 0x80 <> 0 then varint_rest s pos limit v (shift + 7) else unzigzag v

(* Most fields (clock deltas, tags, small sizes) fit one byte. *)
let read_varint s ~pos ~limit =
  let p = !pos in
  if p < limit && Char.code (String.unsafe_get s p) < 0x80 then begin
    pos := p + 1;
    unzigzag (Char.code (String.unsafe_get s p))
  end
  else varint_rest s pos limit 0 0

(* --- events ---------------------------------------------------------------- *)

let tag_of = function
  | Event.Alloc _ -> 0
  | Event.Free _ -> 1
  | Event.Split _ -> 2
  | Event.Coalesce _ -> 3
  | Event.Phase _ -> 4
  | Event.Sbrk _ -> 5
  | Event.Trim _ -> 6
  | Event.Fit_scan _ -> 7

let add_event b ~prev_clock ~clock e =
  Buffer.add_char b (Char.unsafe_chr (tag_of e));
  add_varint b (clock - prev_clock - 1);
  match e with
  | Event.Alloc { payload; gross; tag; addr } ->
    add_varint b payload;
    add_varint b gross;
    add_varint b tag;
    add_varint b addr
  | Event.Free { payload; addr } ->
    add_varint b payload;
    add_varint b addr
  | Event.Split { addr; parent; taken; remainder } ->
    add_varint b addr;
    add_varint b parent;
    add_varint b taken;
    add_varint b remainder
  | Event.Coalesce { addr; merged; absorbed } ->
    add_varint b addr;
    add_varint b merged;
    add_varint b absorbed
  | Event.Phase p -> add_varint b p
  | Event.Sbrk { bytes; brk } ->
    add_varint b bytes;
    add_varint b brk
  | Event.Trim { bytes; brk } ->
    add_varint b bytes;
    add_varint b brk
  | Event.Fit_scan { steps } -> add_varint b steps

(* Every field is a direct [read_varint] and the clock goes back through
   [clock]: a local reader closure and a (clock, event) pair would cost
   nine words per event, more than the event itself. *)
let read_event s ~pos ~limit ~clock =
  if !pos >= limit then corrupt "truncated event (missing tag byte)";
  let tag = Char.code (String.unsafe_get s !pos) in
  incr pos;
  clock := !clock + 1 + read_varint s ~pos ~limit;
  match tag with
  | 0 ->
    let payload = read_varint s ~pos ~limit in
    let gross = read_varint s ~pos ~limit in
    let etag = read_varint s ~pos ~limit in
    let addr = read_varint s ~pos ~limit in
    Event.Alloc { payload; gross; tag = etag; addr }
  | 1 ->
    let payload = read_varint s ~pos ~limit in
    let addr = read_varint s ~pos ~limit in
    Event.Free { payload; addr }
  | 2 ->
    let addr = read_varint s ~pos ~limit in
    let parent = read_varint s ~pos ~limit in
    let taken = read_varint s ~pos ~limit in
    let remainder = read_varint s ~pos ~limit in
    Event.Split { addr; parent; taken; remainder }
  | 3 ->
    let addr = read_varint s ~pos ~limit in
    let merged = read_varint s ~pos ~limit in
    let absorbed = read_varint s ~pos ~limit in
    Event.Coalesce { addr; merged; absorbed }
  | 4 -> Event.Phase (read_varint s ~pos ~limit)
  | 5 ->
    let bytes = read_varint s ~pos ~limit in
    let brk = read_varint s ~pos ~limit in
    Event.Sbrk { bytes; brk }
  | 6 ->
    let bytes = read_varint s ~pos ~limit in
    let brk = read_varint s ~pos ~limit in
    Event.Trim { bytes; brk }
  | 7 -> Event.Fit_scan { steps = read_varint s ~pos ~limit }
  | t -> corrupt "unknown event tag %d" t

(* --- chunk headers ---------------------------------------------------------
   Fixed-width little-endian fields so a reader can skip a chunk with one
   seek; everything inside the payload is varints. *)

type header = { h_len : int; h_count : int; h_first_clock : int; h_crc : int }

let is_trailer h = h.h_len = 0 && h.h_count = 0

let add_u32 b v =
  for i = 0 to 3 do
    Buffer.add_char b (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let add_i64 b v =
  let v = Int64.of_int v in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let get_i64 s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
  done;
  Int64.to_int !v

let add_magic ?(version = version) b =
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr version);
  (* Version 1 predates the feature word; only the v2 prefix carries it. *)
  if version >= 2 then add_u32 b supported_features

let add_header b h =
  add_u32 b h.h_len;
  add_u32 b h.h_count;
  add_i64 b h.h_first_clock;
  add_u32 b h.h_crc

let read_header s ~pos =
  let h =
    {
      h_len = get_u32 s pos;
      h_count = get_u32 s (pos + 4);
      h_first_clock = get_i64 s (pos + 8);
      h_crc = get_u32 s (pos + 16);
    }
  in
  if h.h_len > max_chunk_bytes then
    corrupt "chunk length %d exceeds the %d-byte bound" h.h_len max_chunk_bytes;
  if h.h_len = 0 && h.h_count <> 0 then
    corrupt "empty chunk claims %d events" h.h_count;
  (* The smallest event is 3 bytes (tag, clock delta, one field). *)
  if h.h_count * 2 > h.h_len && h.h_len > 0 then
    corrupt "chunk of %d bytes cannot hold %d events" h.h_len h.h_count;
  h

let fnv32 s off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xffffffff
  done;
  !h
