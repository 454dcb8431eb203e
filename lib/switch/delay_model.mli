(** Control-loop delay model (Section 6.5).

    The prototype's control loop spends time fetching all counters, saving
    or deleting only the changed rules, and computing allocations and
    reports at the controller.  The paper reports that software switches
    save/delete 512 rules in under 20 ms and that fetch dominates because
    every counter is fetched while updates are incremental.  This module
    prices those operations so the simulator can (a) reproduce the Fig 17a
    breakdown and (b) degrade freshly-installed counters by the fraction of
    the epoch lost to rule installation, reproducing the prototype-vs-
    simulator gap of Figs 8 and 9.

    The costs are constants calibrated to the paper's prototype: save and
    delete 0.038 ms per rule (20 ms / 512 rules), fetch 0.012 ms per rule,
    and a 0.25 ms round trip per switch per batch. *)

val fetch_per_rule_ms : float
val save_per_rule_ms : float
val delete_per_rule_ms : float

val rtt_ms : float
(** Per-switch round-trip cost of a batch. *)

val epoch_ms : float
(** The wall-clock length one measurement epoch models: 1000 ms, the
    paper's 1 s epoch. *)

val fetch_ms : rules:int -> switches:int -> float
(** Cost of fetching [rules] counters spread over [switches] switches. *)

val save_ms : installs:int -> removals:int -> switches:int -> float
(** Cost of the incremental rule update. *)

val install_miss_fraction : installs:int -> switches:int -> float
(** Fraction of the measurement epoch a freshly-installed rule misses while
    the update is in flight, in \[0, 1\]. *)
