(** An exponentially-weighted moving average, as a checkpoint holds it.

    DREAM smooths task accuracies with an EWMA whose [history] weight is the
    coefficient on the previous average (the paper uses history weight
    [alpha = 0.4] for accuracies and [0.8] for change-detection volume
    means): [avg' = history *. avg +. (1 -. history) *. sample], the first
    sample seeding the average.  The per-epoch path runs that arithmetic in
    place on float columns, which never box: the task's smoothed
    accuracies and the monitor's CD means.  This module is their
    checkpoint form, converted only at that edge. *)

type t

val restore : history:float -> avg:float option -> t
(** A filter's captured state: its history weight and average, [None]
    before the first sample.  @raise Invalid_argument unless
    [0.0 <= history && history < 1.0]. *)

val value : t -> float option
(** The average, or [None] before the first sample. *)

val codec : history:float -> t Codec.t
(** A filter in a checkpoint: its average alone.  The weight is the
    caller's constant [history], which a checkpoint pins once, in its
    [[build]] section. *)
