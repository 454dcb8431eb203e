(** Estimated task accuracy: one global figure plus a local figure per
    switch (Section 4, "Task Accuracy Computation").  All values live in
    \[0, 1\].  For HH and CD tasks the figures are estimated recall; for
    HHH they are estimated precision.

    An estimate is one float column, owned by the estimator that fills it
    and refilled every epoch.  A float array holds its cells unboxed, so
    the per-epoch path writes and reads the figures without allocating. *)

type t = float array
(** [k + 1] cells for a task of [k] sub-filter bits (switches, see
    {!Dream_traffic.Switch_mask}): the global figure in cell {!global},
    bit [b]'s local figure in cell [local b]. *)

val create : int -> t
(** [create k]: the column of a task of [k] sub-filter bits, every
    figure 1. *)

val global : int
(** 0. *)

val local : int -> int
(** [local b] is [b + 1]. *)
