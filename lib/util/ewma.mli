(** Exponentially-weighted moving average.

    DREAM smooths task accuracies with an EWMA whose [history] weight is the
    coefficient on the previous average (the paper uses history weight
    [alpha = 0.4] for accuracies and [0.8] for change-detection volume
    means):  [avg' = history *. avg +. (1 -. history) *. sample]. *)

type t

val create : history:float -> t
(** [create ~history] makes an empty filter.  @raise Invalid_argument unless
    [0.0 <= history && history < 1.0]. *)

val update : t -> float -> float
(** [update t x] folds in a sample and returns the new average.  The first
    sample initialises the average to [x]. *)

val value : t -> float option
(** Current average, or [None] before the first sample. *)

val value_or : t -> float -> float
(** [value_or t default] is the current average, or [default] if empty. *)

val scale : t -> float -> unit
(** [scale t k] multiplies the current average by [k] (used when a monitored
    prefix is split and its history is shared between children).  No-op when
    empty. *)

val restore : history:float -> avg:float option -> t
(** Rebuild a filter from captured state (its history weight and {!value}).
    @raise Invalid_argument unless [0.0 <= history && history < 1.0]. *)

val codec : history:float -> t Codec.t
(** A filter in a checkpoint: its average alone.  The weight is the
    caller's constant [history], which a checkpoint pins once, in its
    [[build]] section. *)
