(** W3C-traceparent-flavoured trace context for cross-process spans.

    One {!t} names a request end to end: [trace_id] (128-bit, hex) is
    shared by every span of the request in every process, [span_id]
    (64-bit, hex) names the sender's own span. [dmm feed] sends a
    context as a one-line preamble — {!magic} + a traceparent — ahead
    of the event stream, and [dmm serve] stamps the connection's spans
    with it, so traces exported on both sides join on the trace id.

    The wire form follows the W3C [traceparent] header
    ([00-<32 hex>-<16 hex>-01]); ids are process-locally random, unique
    enough for soak runs, and never all-zero (reserved by the spec). *)

type t = { trace_id : string;  (** 32 lowercase hex chars *)
           span_id : string  (** 16 lowercase hex chars *) }

val magic : string
(** ["DMMC"] — the 4-byte preamble marker, sniffable alongside the
    binary codec's ["DMMT"]. *)

val make : unit -> t
(** Fresh random trace id and span id. *)

val child : t -> t
(** Same trace, fresh span id — for a span caused by [t]'s span. *)

val to_traceparent : t -> string
(** ["00-<trace_id>-<span_id>-01"]. *)

val of_traceparent : string -> (t, string) result
(** Inverse of {!to_traceparent}; accepts any 2-hex version except
    ["ff"] and any flags field, rejects malformed or all-zero ids. *)

val preamble : t -> string
(** The full wire preamble line, newline included:
    ["DMMC 00-…-…-01\n"]. *)

val input_preamble : in_channel -> string
(** The rest of a preamble line whose {!magic} the caller has read: up
    to and including the first newline, but at most 124 bytes (128 with
    the magic; a {!preamble} is 61), so a peer that sends no newline
    costs a bounded read. *)

val of_preamble_line : string -> (t, string) result
(** Parse a received preamble line (with or without the trailing
    newline). *)
