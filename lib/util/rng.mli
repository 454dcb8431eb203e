(** Deterministic pseudo-random number generation.

    The simulator must be reproducible across runs and OCaml releases, so we
    ship our own generator (xoshiro256** seeded through splitmix64) instead
    of relying on [Stdlib.Random], whose sequence is not stable between
    compiler versions.  All experiment code takes an explicit [t] so that
    independent subsystems (traffic, workload) can use independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from [t],
    advancing [t].  Useful to give each task or switch its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples Exp with the given mean. *)

val thin_jitter :
  t -> loss:float -> stddev:float -> keys:int array -> vols:float array -> int -> int
(** [thin_jitter t ~loss ~stddev ~keys ~vols n] drops and perturbs the
    first [n] key/value pairs in place and returns how many survive,
    closed up in order at the front of [keys] and [vols].  Pair by pair:
    when [loss > 0], the pair is dropped if [float t 1.0 < loss]; when
    [stddev > 0], a survivor's value [v] becomes
    [Float.max 0.0 (v *. (1.0 +. stddev *. g))], where [g] is a standard
    normal drawn by Box-Muller from two [float t 1.0] draws [u1] and [u2]:
    [sqrt (-2 log (u1 + 1e-12)) *. cos (2 pi u2)].  The draws, and every
    bit of the result, are those of that loop over {!bernoulli} and
    {!float}, but nothing is boxed: a call allocates nothing, whatever
    [n]. *)

val lognormal_into :
  t -> mu:float -> sigma:float -> scale:float -> float array -> int -> unit
(** [lognormal_into t ~mu ~sigma ~scale dst i] sets [dst.(i)] to
    [scale *. exp (mu + sigma * g)], [g] the standard normal
    {!thin_jitter} draws: a lognormal variate scaled by [scale].  Written
    in place, the result is never boxed. *)

val pareto : t -> alpha:float -> xmin:float -> float
(** [pareto t ~alpha ~xmin] samples a Pareto(alpha) variate >= xmin. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples a rank in \[1, n\] under a Zipf(s) law by
    inversion on the precomputed harmonic table is avoided: uses rejection
    sampling suitable for repeated draws with varying [n]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on
    empty input. *)

val codec : string -> t Codec.t
(** A generator's raw xoshiro256** state words as four [name0] … [name3]
    lines, for checkpointing; a generator read back continues its stream
    exactly where the written one left off. *)
