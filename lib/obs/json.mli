(** The one JSON string escaper behind every hand-written JSON writer:
    the trace sinks, the access log, the CLI's [--json] reports and the
    bench results. *)

val escape : string -> string
(** The body of a JSON string literal for [s], without its quotes. The
    double quote and the backslash are backslash-escaped and control
    bytes become [\u00XX]. Every other byte passes through, so UTF-8
    text stays UTF-8. *)
