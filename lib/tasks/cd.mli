(** Change-detection task behaviour (Table 1, row CD).

    A change is significant when the counter's volume deviates from its
    historical mean by more than the threshold; reporting, scoring and
    accuracy estimation mirror HH with |volume - mean| in place of volume.
    Call {!finish_epoch} once per epoch, after reporting and estimating,
    to fold the epoch's volumes into the per-counter means. *)

val report : Monitor.t -> epoch:int -> Report.t

val estimate :
  Monitor.t -> allocations:int array -> Accuracy.t
(** [allocations] is indexed by sub-filter bit. *)

val finish_epoch : Monitor.t -> unit
