(** Task-dependent prefix scoring (Table 1).

    The score estimates how "interesting" a monitored prefix is — how much
    accuracy a drill-down under it is likely to buy.  HH and CD normalise
    by the number of wildcard bits (+1) so that a coarse prefix with the
    same volume as a fine one scores lower per potential leaf; HHH scores
    raw volume because every level of the hierarchy matters. *)

val apply : Monitor.t -> unit
(** Rescore every counter that is not fresh under the monitor's spec,
    written into the monitor's score column. *)
