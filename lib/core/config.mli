(** System-wide DREAM parameters (Section 6.1 defaults).

    Time is virtual: a measurement epoch is one controller tick, which the
    delay model prices as {!Dream_switch.Delay_model.epoch_ms} (the paper's
    1 s), and allocation runs every [allocation_interval] ticks (the paper
    uses 2 s).  Parameters that only ever take one value are constants in
    the module that uses them, not fields here: the delay model's per-rule
    costs, RTT and epoch length ({!Dream_switch.Delay_model}), Algorithm
    1's hysteresis, initial step, floor and step envelope
    ({!Dream_alloc.Dream_allocator}), the accuracy EWMA's history weight
    0.4 ({!Dream_tasks.Task}), the CD mean's history weight 0.8
    ({!Dream_tasks.Task_spec.cd_history}), and in degraded mode the
    circuit breaker's threshold 3 and cooldown 4
    ({!Dream_switch.Breaker}) and the staleness bound 4
    ({!Fetch.shed_max_staleness}), and under a fault spec the mean
    downtime 4, stale decay 0.9, retry budget 0.5, partition groups 4 and
    storm size 6 ({!Dream_fault.Fault_model}). *)

type degraded = {
  deadline_fraction : float;
      (** the enforced fetch deadline, as a fraction of
          {!Dream_switch.Delay_model.epoch_ms}: the
          deadline-aware scheduler sheds work rather than let modelled
          fetch time exceed it *)
}
(** Degraded mode: per-switch circuit breakers over the control channel,
    the deadline-aware fetch scheduler and load shedding with bounded
    staleness. *)

val default_degraded : degraded
(** Deadline 80% of the epoch. *)

type t = {
  allocation_interval : int;  (** measurement epochs per allocation epoch *)
  drop_threshold : int;  (** consecutive poor allocation rounds before a drop *)
  prototype : bool;
      (** Section 6.1's prototype, the configuration of the Figs 8/9
          validation: freshly installed rules miss the fraction of the
          epoch the rule update takes, priced by
          {!Dream_switch.Delay_model}, and satisfaction is scored with the
          controller's own accuracy estimates, the only ones the prototype
          had.  Unset, the simulation installs rules at once and scores
          with ground truth. *)
  accuracy_mode : Dream_tasks.Task.accuracy_mode;
      (** what drives per-switch allocation: the paper's max(global,
          local), or global alone (an ablation) *)
  install_budget : int option;
      (** rule updates (installs + deletes) a switch can apply per epoch.
          [None] models a software switch (the paper's evaluation
          platform); a few hundred models the hardware switch whose slow
          rule installation made the paper abandon it (Section 6.1: the
          Pica8 3290 took 1 s for 256 rules) *)
  faults : Dream_fault.Fault_model.spec option;
      (** when set, the controller drives its switches through a seeded
          fault-injection layer (crashes, fetch timeouts, counter loss,
          install failures) and runs its failure-tolerance machinery:
          retries, stale-counter fallback, quarantine and reinstall.
          [None] (the default) is the paper's perfectly reliable control
          channel.  The controller has one fetch path either way: without
          a fault model every switch reduces exactly to its TCAM (never
          down or partitioned, latency factor 1.0, every read [Ok]), so
          no retry, fallback or extra modelled time can occur. *)
  degraded : degraded option;
      (** when set (and [faults] is set), the controller runs its
          degraded-mode machinery: per-switch circuit breakers, the
          deadline-aware fetch scheduler ordered by staleness-urgency, and
          load shedding with bounded staleness.  [None] keeps the plain
          retry loop.  With a zero-rate fault spec the degraded path is
          byte-identical to running without it: breakers never trip and
          the deadline is never hit. *)
  check_invariants : bool;
      (** run {!Dream_recovery.Invariant.check_all} at the end of every
          epoch and tally violations in the robustness metrics.  Off by
          default: the checks walk every task's rule sets each epoch. *)
  telemetry : Dream_obs.Telemetry.t option;
      (** when set, the controller times every control-loop phase against
          the bundle's clock, records spans/events in its trace and
          per-task/per-switch rows, and tallies all counters in its
          registry.  [None] (the default) records nothing and leaves runs
          bit-identical: telemetry never touches simulation state.  The
          field lives only in memory — checkpoints neither save nor
          restore it. *)
}

val validate : t -> unit
(** Reject values the controller cannot run with: an [allocation_interval]
    below 1, a [drop_threshold] below 1 (a rich task's reset streak would
    reach it, so any task on a congested switch could be dropped), an
    [install_budget] below 1 (no rule update would ever apply), and in
    [degraded] a [deadline_fraction] outside (0, 1] (NaN included).
    {!Controller.create}
    and checkpoint parsing both call it.
    @raise Invalid_argument naming the first bad field. *)

val default : t
(** interval 2, drop threshold 6, not the prototype: no control delay,
    real-accuracy scoring. *)

val hardware : installs_per_epoch:int -> t
(** The prototype configuration further constrained by a hardware
    switch's rule-update rate; deferred updates degrade accuracy, which is
    why the paper's control loop needs fast rule installation. *)

val prototype : t
(** {!default} with [prototype] set — the configuration that mimics the
    paper's prototype for the Figs 8/9 validation. *)
