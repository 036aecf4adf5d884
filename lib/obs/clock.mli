(** The one clock for durations: the host's monotonic clock, which never
    steps backwards when the wall clock is adjusted. Its origin is
    arbitrary, so only differences between two readings mean anything; a
    date, such as an access-log timestamp, still comes from the wall
    clock. *)

val now_ns : unit -> int
(** Nanoseconds since the clock's origin. *)

val now_s : unit -> float
(** {!now_ns} in seconds, for durations kept as floats. *)
