(** The DREAM controller (Figure 3, Algorithm 1).

    Owns the switch network, the allocator and the admitted task objects,
    and advances virtual time one measurement epoch per {!tick}: per task,
    it pulls the epoch's traffic from the task's trace generator, reads the
    task's TCAM counters on every switch, lets the task object report and
    estimate accuracy, runs an allocation round on allocation epochs
    (including drop decisions), reconfigures counters, and incrementally
    syncs rules to switches.

    Real accuracy against ground truth is computed per epoch for
    evaluation; DREAM's own decisions only ever use estimated accuracy.

    When {!Config.t.faults} is set, the controller drives its switches
    through the fault-injection layer and tolerates the failures it
    injects: timed-out counter fetches are retried with exponential
    backoff while a per-epoch time budget (a fraction of the 1 s epoch)
    lasts; a switch that stays unreachable serves the previous epoch's
    readings while the task's estimated accuracy is decayed so the
    allocator reacts; crashed switches are quarantined (their allocations
    zeroed, which makes divide-and-merge reconfigure counters onto the
    healthy switches); and a recovered switch gets its full rule set
    reinstalled.  Everything is tallied in {!robustness}. *)

type t

val create :
  config:Config.t ->
  strategy:Dream_alloc.Allocator.strategy ->
  num_switches:int ->
  capacity:int ->
  t
(** @raise Invalid_argument if [num_switches <= 0], [capacity <= 0] or
    [config] fails {!Config.validate}. *)

val epoch : t -> int
(** Next epoch to be simulated (0 before the first {!tick}). *)

val num_switches : t -> int

val switches : t -> Dream_switch.Switch.t array

val allocator : t -> Dream_alloc.Allocator.t

val submit :
  t ->
  spec:Dream_tasks.Task_spec.t ->
  topology:Dream_traffic.Topology.t ->
  source:Dream_traffic.Source.t ->
  duration:int ->
  [ `Admitted of int | `Rejected ]
(** Offer a task: admission control decides (step 2 of the workflow).
    [source] supplies the task's traffic (synthetic or a replayed trace);
    [duration] is the task's lifetime in epochs. *)

val tick : t -> unit
(** Simulate one measurement epoch for all active tasks. *)

val run : t -> epochs:int -> unit
(** [tick] repeatedly. *)

val active_tasks : t -> int

val active_task_ids : t -> int list

val last_report : t -> task_id:int -> Dream_tasks.Report.t option
(** Most recent report of an active task (step 5 of the workflow), built
    from its item buffer when called; [None] before the task's first tick
    since admission or {!restore}. *)

val smoothed_accuracy : t -> task_id:int -> float option
(** Current smoothed estimated global accuracy of an active task. *)

val finalize : t -> unit
(** Close out still-active tasks (end of experiment), recording their
    partial lifetimes; the controller must not be ticked afterwards. *)

val records : t -> Metrics.record list
(** All finished (or finalized) and rejected task records. *)

val summary : t -> Metrics.summary
(** Includes the {!robustness} counters. *)

val faults : t -> Dream_fault.Fault_model.t option
(** The live fault model, when the config enabled injection. *)

val telemetry : t -> Dream_obs.Telemetry.t option
(** The telemetry bundle the config attached, if any.  The controller
    only ever appends to it; exporting is the owner's job
    ({!Dream_obs.Telemetry.write_dir}).  Each tick writes one span and
    one [phase_ms] observation per phase, on the clocks {!Dream_obs.Trace}
    names. *)

val robustness : t -> Metrics.robustness
(** Cumulative fault/recovery counters ({!Metrics.no_faults} when no fault
    spec is configured). *)

val total_rules_installed : t -> int
val total_rules_fetched : t -> int
(** Cumulative switch-side rule churn, for the incremental-update stats. *)

(** {2 Crash consistency}

    The controller can persist its full state between ticks: {!snapshot}
    serializes a sealed, deterministic checkpoint document, and an attached
    write-ahead {!Dream_recovery.Journal} records every control-plane
    outcome fail-over replays (admissions, rejections, allocation values,
    task endings, switch crash/recovery observations) before its effects
    are applied.  Rule installs and deletes are not journalled: fail-over
    audits the switches instead.

    Two restart paths consume them.  {!restore} rebuilds a standalone
    controller — network and all — from a snapshot alone: a restored run
    produces bit-identical per-epoch behaviour to the run that wrote the
    checkpoint.  {!recover} is fail-over: the switches and the fault
    model {e survive} the controller crash, so the new controller
    replays the journal suffix into the checkpoint to bring task
    membership, records and allocations current, fast-forwards each
    task's traffic source to the recovery epoch, re-attaches to the live
    network, and audits every reachable switch against the restored rule
    state ({!Failover}) — strays removed, missing rules
    reinstalled, both tallied in {!robustness}.  Task measurement state
    between the checkpoint and the crash (counter readings, smoothed
    accuracies) is legitimately lost; the crash-recovery experiment
    measures exactly that accuracy dip and its reconvergence time. *)

val set_journal : t -> Dream_recovery.Journal.sink option -> unit
(** Attach (or detach) a write-ahead journal.  [None] by default: without
    a sink, runs journal nothing and behave bit-identically to builds
    before crash consistency existed. *)

val controller_crash_pending : t -> bool
(** Whether the fault model declared a controller crash during the last
    {!tick}.  The driver owning the controller decides what to do — in the
    crash-recovery experiment it builds a successor with {!recover}. *)

val storm_tasks_pending : t -> int
(** Extra task submissions the fault model's tenant admission storm asked
    for during the last {!tick} (0 outside storms).  The driver owning
    the workload decides what to submit; the controller's admission
    control treats storm tasks like any others. *)

val breaker_states : t -> Dream_switch.Breaker.state array
(** {!Fetch.breaker_states}: empty outside degraded mode. *)

val staleness_of : t -> task_id:int -> int option
(** The task's bounded-staleness level: consecutive epochs it reported
    with at least one stale or missing switch.  [None] if not active. *)

val reachable : t -> Dream_traffic.Switch_id.t -> bool
(** Whether the controller can converge the switch this epoch
    ({!Fetch.reachable}).  The invariant checker audits only reachable
    switches; the chaos oracle excuses staleness growth on a task with an
    unreachable switch. *)

val task_switches : t -> task_id:int -> Dream_traffic.Switch_id.t list option
(** Switches the task needs counters on; [None] if not active.  The chaos
    oracle uses this to decide whether a staleness level above the shed
    cap is explained by an unreachable switch. *)

val check_invariants_now : t -> Dream_recovery.Invariant.violation list
(** Run the runtime invariant checker against the controller's current
    state, exactly as the in-tick check ([config.check_invariants]) does —
    same task ordering, same reachability predicate.  Read-only; external
    oracles (the chaos harness) call it between ticks. *)

val pooled_storage : t -> int
(** Storage entries retired, dropped and rejected tasks handed back that
    no admission has taken yet ({!Runtime.recycle}): never more than the
    most tasks live at once. *)

val max_staleness : t -> int
(** Largest staleness level among active tasks (0 when none). *)

val snapshot : t -> string
(** Serialize the full controller state — config, fault model, allocator,
    every switch's installed rules, all records and robustness counters,
    and every active task's complete runtime state (spec, topology,
    counters, EWMA estimators, traffic source RNG) — as a sealed text
    document.  Call between ticks. *)

val checkpoint : t -> string
(** {!snapshot}, then truncate the attached journal: the snapshot now
    subsumes everything the journal held. *)

val restore : string -> (t, string) result
(** Rebuild a standalone controller from a {!snapshot} document,
    reconstructing the switch network and fault model from the checkpoint.
    [Error] on a bad checksum, wrong magic, or malformed body — including
    a correctly sealed body holding a value that cannot be rebuilt
    ({!Checkpoint.parse}); it never raises. *)

type env
(** The part of the simulation that outlives a controller crash: switches
    (with their TCAM contents) and the fault model. *)

val environment : t -> env
(** Capture the live network before tearing a controller down. *)

val recover :
  env:env ->
  snapshot:string ->
  journal:Dream_recovery.Journal.entry list ->
  at_epoch:int ->
  (t, string) result
(** Fail over onto the live [env]: restore controller-private state from
    [snapshot], replay the [journal] suffix, fast-forward traffic sources
    to [at_epoch], reconcile every reachable switch, and resume at
    [at_epoch].  The successor has no journal attached; re-attach one with
    {!set_journal}.  [Error] without touching [env] when [snapshot] does
    not parse (as for {!restore}), holds a different switch count than
    [env], or was taken after [at_epoch], or when the journal holds an
    entry replay cannot apply ({!Failover.replay}).  It never raises. *)
