(** Estimated task accuracy: one global figure plus a local figure per
    switch (Section 4, "Task Accuracy Computation").  All values live in
    \[0, 1\].  For HH and CD tasks the figures are estimated recall; for
    HHH they are estimated precision. *)

type t = {
  global : float;
  locals : float array;
      (** per sub-filter bit of the task's topology (a switch, see
          {!Dream_traffic.Switch_mask}) *)
}

val overall : t -> int -> float
(** [max global local] — the overall accuracy used for allocation
    decisions. *)

val clamp : float -> float
(** Clamp into \[0, 1\]. *)
