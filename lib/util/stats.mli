(** Descriptive statistics for experiment reporting.

    The evaluation reports mean and 5th-percentile satisfaction across
    tasks, plus 95th-percentile delays; this module centralises those
    computations so every figure uses the same definitions. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 for fewer than two samples. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in \[0, 100\], by linear interpolation
    between closest ranks (the same convention as numpy's default).
    Total over the sample: [nan] on the empty list, the sole element on a
    singleton.  @raise Invalid_argument if [p] is outside \[0, 100\]. *)

val median : float list -> float
(** [nan] on the empty list, like {!percentile}. *)

val maximum : float list -> float
