(** A recorded allocation-event stream: the sanitizer's and the
    profiler's input, one {!entry} at a time.

    Entries come from a live replay's probe (attach
    [fun clock event -> feed st { clock; event }] before the manager is
    built), from a [dmm trace] export re-read from disk (JSONL or the
    {!Dmm_obs.Codec} binary framing, auto-detected), from a socket
    feeding the ingest daemon, or from a string. Every consumer takes
    one entry at a time, so it runs in memory bounded by what it keeps,
    never by the stream's length. *)

type entry = { clock : int; event : Dmm_obs.Event.t }

(** {1 Incremental sources} *)

type source
(** A pull-based entry stream. Decode errors (malformed JSONL line,
    corrupt or truncated binary chunk) surface as the [Error] of
    {!fold_source} — they are I/O-level failures of the record itself,
    not heap diagnostics. *)

exception Parse_error of string
(** What {!next_entry} raises on a decode error — exposed for drivers
    that pull entries directly (the ingest daemon's batched reader)
    instead of going through {!fold_source}. *)

val source_of_string : ?path:string -> string -> source
(** Over an in-memory buffer; format auto-detected as in
    {!source_of_channel}. [path] prefixes error messages. *)

val source_of_channel :
  ?path:string -> ?prefix:string -> ?count:int ref -> in_channel -> source
(** Over an open channel (file or socket). The first four bytes decide
    the format — the binary magic ["DMMT"] or JSONL text — and are
    pushed back, so unseekable inputs work. [prefix] is replayed before
    the channel's bytes — for callers that already consumed a sniff
    window (the ingest daemon peeking for a trace-context preamble).
    [count] accumulates every byte the source consumes, prefix
    included, counted exactly once. The caller owns the channel unless
    a close hook was wired by the constructor. *)

val source_of_file : string -> (source, string) result
(** Open [path] and auto-detect its format. The returned source owns
    the file handle and closes it when the source is exhausted or
    folded. *)

val next_entry : source -> entry option
(** Pull the next entry; [None] at end of stream. Raises on decode
    errors — prefer {!fold_source}/{!iter_source}, which turn them
    into [Error]. *)

val close_source : source -> unit
(** Release the underlying handle early (abnormal exits). Folding a
    source to completion closes it already. *)

val fold_source : source -> init:'a -> f:('a -> entry -> 'a) -> ('a, string) result
(** Drive the source to exhaustion, folding each entry. Always closes
    the source. [Error] carries ["<path>: line N: <why>"] for JSONL
    and ["<path>: <why>"] for binary corruption or truncation. An event
    outside {!Dmm_obs.Event.t} is such an error ([unknown event kind]
    in JSONL, [unknown event tag N] in binary), the object-graph kinds
    of older recordings ([ptr_write], [root_add], [root_remove]; tags
    8–10) included. *)

val iter_source : source -> f:(entry -> unit) -> (int, string) result
(** Like {!fold_source}; returns the number of entries seen. *)

val file_format : string -> ([ `Jsonl | `Binary ], string) result
(** Sniff a file's format from its first four bytes without decoding
    it. *)

(** {1 Integrity} *)

val clock_gap : clock:int -> position:int -> Diag.t
(** The [incomplete-stream] diagnostic for an event whose clock does not
    equal its position. The probe's logical clock ticks once per event,
    so a faithful record carries clocks [0,1,2,…]; a gap, duplicate or
    disorder means invariant checking would report phantoms of the
    missing events, so the sanitizer's gate reports this once and skips
    its passes. A truncated tail still forms a gap-free prefix and
    passes: the heap invariants are prefix-closed. *)
