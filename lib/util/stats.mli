(** Streaming summary statistics (Welford) over integer or float samples. *)

type t

val create : unit -> t

val add : t -> float -> unit
val add_int : t -> int -> unit

val count : t -> int
val total : t -> float
val mean : t -> float
(** Mean of the samples; [0.] when empty. *)

val variance : t -> float
(** Population variance; [0.] when fewer than two samples. *)

val stddev : t -> float

val coefficient_of_variation : t -> float
(** stddev / mean; [0.] when the mean is zero. The paper's heuristics key on
    this to detect "very variable" block-size behaviour. *)

val min_value : t -> float
(** Raises [Invalid_argument] when empty. *)

val max_value : t -> float
(** Raises [Invalid_argument] when empty. *)

val copy : t -> t
(** An independent copy: later samples added to either leave the other
    unchanged. *)

val merge : t -> t -> t
(** Combined statistics of the two sample streams. *)

val pp : Format.formatter -> t -> unit
