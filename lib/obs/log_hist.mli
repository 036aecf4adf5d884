(** HDR-style log-bucketed histogram: O(1) record, bounded relative error.

    Values below [2^sub_bits] are counted exactly; larger values share
    log-spaced buckets of relative width [2^(1-sub_bits)] (6.25% at the
    default [sub_bits = 5]). Percentile queries return the containing
    bucket's inclusive upper bound, so they bracket the exact multiset
    percentile from above within {!relative_error}. *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] (default 5, range 1–16) trades memory for resolution:
    [bucket_count] cells of one [int] each. *)

val record : t -> int -> unit
(** O(1); negative values clamp to 0. *)

val count : t -> int

val sum : t -> int
(** Sum of the recorded values, saturating at [max_int]. *)

val mean : t -> float
val max_value : t -> int
(** Exact (tracked beside the buckets), 0 when empty. *)

val min_value : t -> int
val sub_bits : t -> int

val percentile : t -> float -> int
(** [percentile t p] for [p] in \[0,1\]: upper bound of the bucket holding
    the rank-[⌈p·count⌉] value; exact recorded maximum for [p = 1]. 0 when
    empty. *)

val iter_buckets : (upper:int -> count:int -> unit) -> t -> unit
(** Non-empty buckets in increasing value order. *)

val pp : Format.formatter -> t -> unit

(** {1 Bucket geometry} (shared with the registry's atomic histograms) *)

val index : sub_bits:int -> int -> int
val upper_bound : sub_bits:int -> int -> int
val bucket_count : sub_bits:int -> int
val relative_error : sub_bits:int -> float
