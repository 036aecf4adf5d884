(** Compact binary trace framing: the wire format behind
    {!Binary_sink} and the [Dmm_check.Stream] binary source.

    A file (or socket stream) is

    {v
    "DMMT" version(1)            5-byte magic
    features u32                 version >= 2 only: feature-bit word
    chunk*                       length-prefixed, independently skippable
    trailer                      a zero-length chunk carrying the event total
    v}

    Version 1 streams have no feature word; readers accept both
    versions, so every pre-existing [DMMT] file keeps decoding to the
    identical entry sequence.

    where each chunk is a 20-byte little-endian header followed by the
    varint-packed events:

    {v
    +--------+--------+---------------+--------+================+
    | len u32| cnt u32| first_clock 64| crc u32| payload (len B)|
    +--------+--------+---------------+--------+================+
    v}

    [len] is the payload byte count, [cnt] the events inside,
    [first_clock] the probe clock of the chunk's first event (the
    integrity clock carried through from the clock-gap gate: a reader can
    verify chunk-to-chunk clock continuity, or seek, without decoding),
    and [crc] an FNV-1a 32-bit checksum of the payload. The trailer is a
    header with [len = cnt = 0] whose [first_clock] field holds the total
    event count of the stream; a reader hitting end-of-input without it
    reports truncation.

    Every event is one tag byte followed by zigzag varints: first the
    clock delta from the previous event ([clock - prev - 1], so a
    gap-free record costs one 0x00 byte per event), then the payload
    fields in declaration order. Encoding is total and decoding is its
    exact inverse: [decode (encode e) = e] for every event and clock,
    including the synthetic, integrity-violating streams the sanitizer
    tests feed in. *)

val magic : string
(** ["DMMT"] — also what format sniffing looks for. *)

val version : int
(** The version written by {!add_magic} by default (2). *)

val magic_bytes : int
(** Bytes of magic + version prefix (5), excluding the feature word. *)

val feature_bytes : int
(** Bytes of the version-2 feature word (4). *)

val supported_features : int
(** The feature word every version-2 writer sets (1: bit 0) and the only
    bits a reader accepts; any other bit is a decode error. Bit 0 once
    declared object-graph events (tags 8–10); they are gone, and those
    tags are unknown like any other, but the bit stays so that every
    stream already written keeps decoding. *)

val header_bytes : int
(** Chunk header size (20). *)

exception Corrupt of string
(** Raised by every [read_*] on malformed input. The message is a
    one-line human-readable cause (bad tag, truncated varint, …). *)

(** {1 Varints} *)

val add_varint : Buffer.t -> int -> unit
(** Zigzag-mapped LEB128: 7 bits per byte, low group first, high bit set
    on continuation bytes. Total over all of [int]. *)

val read_varint : string -> pos:int ref -> limit:int -> int
(** Inverse of {!add_varint}; [pos] advances past the varint. Raises
    {!Corrupt} when the varint runs past [limit] or overflows. *)

(** {1 Events} *)

val add_event : Buffer.t -> prev_clock:int -> clock:int -> Event.t -> unit

val read_event : string -> pos:int ref -> limit:int -> clock:int ref -> Event.t
(** Decodes the event at [!pos] and advances [pos] past it. [clock] holds
    the previous event's clock on entry and this event's on return.
    Allocates only the event. *)

(** {1 Chunk headers} *)

type header = { h_len : int; h_count : int; h_first_clock : int; h_crc : int }

val is_trailer : header -> bool

val add_magic : ?version:int -> Buffer.t -> unit
(** Appends the stream prefix: magic, version byte (default {!version})
    and — for version 2 and up — the feature word
    {!supported_features}. [~version:1] reproduces the historic 5-byte
    prefix exactly. *)

val add_header : Buffer.t -> header -> unit

val read_header : string -> pos:int -> header
(** Decodes 20 bytes at [pos]; bounds are the caller's concern (it reads
    exactly {!header_bytes} bytes). Sanity-checks the fields ([len] within
    the 1 GiB chunk bound, [count] consistent with [len]) and raises
    {!Corrupt} otherwise. *)

val get_u32 : string -> int -> int
(** Little-endian u32 at a byte offset — what the version-2 feature word
    is stored as. *)

val fnv32 : string -> int -> int -> int
(** [fnv32 s off len]: FNV-1a 32-bit over [s.[off .. off+len-1]]. Every
    step is a bijection on the 32-bit state, so two same-length payloads
    differing in one byte can never collide. *)
