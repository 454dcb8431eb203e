(** NetFlow-style sampled heavy-hitter detection — the third point in the
    design space the paper's related work contrasts with TCAMs and
    sketches (sampling-based systems like CSAMP and Volley).

    Each epoch the detector keeps at most [budget] sampled flow records
    (uniform flow sampling); a key is reported when its sampled volume,
    scaled by the inverse sampling rate, exceeds the threshold.  Both
    false negatives (unlucky heavy flows) and false positives (lucky
    medium flows) occur, unlike the one-sided errors of TCAMs (recall
    loss only) and sketches (precision loss only) — which is exactly the
    trade-off the ablation bench plots. *)

type t

val create :
  spec:Dream_tasks.Task_spec.t -> budget:int -> seed:int -> unit -> t
(** [budget] is the resource count: flow records retained per epoch.
    @raise Invalid_argument if [budget <= 0]. *)

val observe_epoch : t -> Dream_traffic.Aggregate.t -> unit
(** Sample one epoch's flows under the task filter. *)

val real_accuracy : t -> Dream_traffic.Aggregate.t -> precision:bool -> float
(** Ground-truth precision / recall of the current report. *)
