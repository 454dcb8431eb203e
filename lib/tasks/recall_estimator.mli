(** HH and CD tasks (Table 1): the report and the shared recall estimate
    (Section 5.3).

    Both kinds detect "exact" counters whose magnitude exceeds the
    threshold: a heavy hitter's volume, or a change's deviation
    [|volume - mean|] from the counter's historical mean.  A TCAM counter's
    reading is exact, so every reported item is true and accuracy means
    recall: detected / (detected + estimated missed).  Missed items under
    a non-exact prefix with [b] wildcard bits and magnitude [v] are bounded
    by [min 2^b (floor (v / threshold))].  Local recall attributes missed
    items to bottlenecked switches only, when any switch is bottlenecked;
    a CD counter's deviation is apportioned to a switch by its share of
    the counter's volume. *)

type magnitude =
  | Volume  (** heavy hitters *)
  | Deviation  (** change detection *)

type t
(** One task's estimator: its monitor, magnitude and report buffer, and
    the running counts and accuracy column it reuses every epoch. *)

val create : Monitor.t -> magnitude -> Items.t -> t

val report : t -> unit
(** Overwrite the buffer with the exact counters whose magnitude exceeds
    the task's threshold, in slot (key) order. *)

val estimate : t -> allocations:int array -> Accuracy.t
(** Estimated recall under allocations indexed by sub-filter bit, 1 on a
    bit outside the task's switches: the estimator's own column,
    refilled by the next call. *)
