(** In-memory event recorder: buffers the whole (clock, event) stream of a
    probed run so it can be analysed offline afterwards — the input of the
    {!Dmm_check} sanitizer when no JSONL export is involved. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] pre-sizes the buffer (default 1024); it grows as needed. *)

val attach : Probe.t -> t -> unit

val to_array : t -> (int * Event.t) array
(** The recorded stream in emission order, clock stamps included. *)
