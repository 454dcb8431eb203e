(** Heavy-hitter task behaviour (Table 1, row HH).

    Reports exact monitored counters whose volume exceeds the threshold;
    since a TCAM counter's reading is exact, every reported HH is true and
    precision is always 1, so accuracy means recall. *)

val report : Monitor.t -> epoch:int -> Report.t

val estimate :
  Monitor.t -> allocations:int array -> Accuracy.t
(** [allocations] is indexed by sub-filter bit. *)
