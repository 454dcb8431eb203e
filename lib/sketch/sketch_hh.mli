(** Sketch-based heavy-hitter detection — the measurement primitive DREAM's
    paper sketches as future work (Section 3: "We can augment DREAM to use
    sketches, since sketch accuracy depends on traffic properties and it is
    possible to estimate this accuracy").

    Unlike the TCAM path, a sketch sees every flow immediately (no
    drill-down latency) but over-counts under hash collisions, so the
    failure mode flips: recall is perfect, precision is not.  The
    ablation compares it with sampling at equal resources. *)

type t

val create : spec:Dream_tasks.Task_spec.t -> cells:int -> ?depth:int -> seed:int -> unit -> t
(** A sketch task with a [cells] resource budget, split into [depth] rows
    (default 4) of [cells / depth] counters.
    @raise Invalid_argument if [cells < depth]. *)

val observe_epoch : t -> Dream_traffic.Aggregate.t -> unit
(** Feed one epoch's traffic (keys are leaf prefixes under the task's
    filter, as for the TCAM tasks). *)

val real_accuracy : t -> Dream_traffic.Aggregate.t -> precision:bool -> float
(** Ground-truth precision (or recall with [~precision:false]) of the
    current report against the epoch's traffic — evaluation only. *)
