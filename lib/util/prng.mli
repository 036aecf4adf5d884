(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic component of the library takes an explicit generator so
    that workloads, traces and experiments are reproducible from a seed.

    The 64-bit state lives unboxed in 8 bytes, so a step allocates
    nothing: {!int}, {!int_in}, {!bool}, {!bernoulli},
    {!choose_weighted} and {!shuffle_in_place} never allocate, and the
    float draws allocate only their boxed result where the compiler does
    not inline them into the caller (across modules in a build with
    [-opaque], such as dune's dev profile). *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val copy : t -> t
(** Independent copy with the same future stream. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the remainder of [t]'s stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. The streams are pinned bit for bit by
    golden values in the test suite: every trace depends on them. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. Raises
    [Invalid_argument] if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples an exponential with the given rate. *)

val pareto : t -> alpha:float -> xmin:float -> float
(** Pareto-distributed sample with shape [alpha] and scale [xmin]; heavy
    tails for [alpha <= 2] give self-similar aggregate processes. *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian sample (Box-Muller). *)

val choose_weighted : t -> (float * 'a) array -> 'a
(** [choose_weighted t arr] picks an element with probability proportional to
    its weight. Raises [Invalid_argument] on an empty array or non-positive
    total weight. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)
