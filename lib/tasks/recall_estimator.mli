(** Shared recall estimation for HH and CD tasks (Section 5.3).

    Both kinds detect "exact" counters whose magnitude (volume for HH,
    deviation for CD) exceeds the threshold, and estimate recall as
    detected / (detected + estimated missed).  Missed items under a
    non-exact prefix with [b] wildcard bits and magnitude [v] are bounded
    by [min 2^b (floor (v / threshold))].  Local recall attributes missed
    items to bottlenecked switches only, when any switch is bottlenecked. *)

val estimate :
  Monitor.t ->
  allocations:int array ->
  magnitude_total:(Monitor.t -> int -> float) ->
  magnitude_on:(Monitor.t -> int -> int -> float) ->
  Accuracy.t
(** An exact counter is detected when its [magnitude_total] (of the
    monitor and slot) exceeds the task's threshold; [magnitude_on] is its
    share on the switch of one sub-filter bit.  [allocations] is indexed
    by sub-filter bit. *)

val missed_bound : wildcards:int -> magnitude:float -> threshold:float -> int
(** The min-of-two-bounds estimate of items missed under one prefix. *)
