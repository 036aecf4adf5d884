(** Structured one-line-JSON access log for the ingest daemon.

    One flat JSON object per finished connection ([dmm serve
    --access-log]): timestamp, shard, trace context, verdict, event and
    byte counts, stage latencies. Writes are mutex-serialised and
    flushed per line, so worker domains never interleave mid-record and
    a crash loses at most the connection in flight. *)

type value = S of string | I of int | F of float | B of bool
(** Field values: strings are JSON-escaped, floats render with three
    decimals. *)

type t

val of_channel : out_channel -> t
(** Log onto an existing channel (not closed by {!close}). *)

val open_file : string -> (t, string) result
(** Create/truncate [path]; the handle is owned and closed by
    {!close}. *)

val write : t -> (string * value) list -> unit
(** Append one record as a single JSON line, in field order, and
    flush. Safe from any domain. *)

val close : t -> unit

val iso8601 : float -> string
(** Render a wall-clock date (seconds since the Unix epoch) as
    [YYYY-MM-DDThh:mm:ss.mmmZ] (UTC) — the [ts] field convention. *)
