(** Crash-recovery experiment: the controller is periodically checkpointed
    and journals every control-plane action; when the fault model declares
    a controller crash, the driver fails over with
    {!Dream_core.Controller.recover} — last checkpoint + journal replay +
    switch reconciliation — and the run continues on the surviving
    network.

    Measured per crash rate, over several fault seeds (mean ± stddev):
    task satisfaction and scored accuracy (how much fail-overs cost
    overall), the estimated-accuracy dip right after fail-over (the
    measurement state a crash legitimately loses), and the time to
    reconverge — epochs until the mean smoothed estimated accuracy is back
    within 5% of its pre-crash level.  Crashes whose tasks all end before
    reconverging are excluded from the reconvergence stat.  The runtime
    invariant checker ({!Dream_core.Controller.check_invariants_now})
    audits the controller after every tick; its violation count must
    stay 0. *)

type point = {
  crash_rate : float;
  runs : int;  (** seeds aggregated into this point *)
  crashes : float;  (** mean controller crashes per run *)
  satisfaction : Dream_core.Metrics.stat;  (** mean task satisfaction, percent *)
  accuracy : Dream_core.Metrics.stat;  (** mean scored accuracy, in \[0, 1\] *)
  reconverge : Dream_core.Metrics.stat;  (** epochs to reconverge after a crash *)
  dip : Dream_core.Metrics.stat;  (** estimated-accuracy dip at fail-over, in \[0, 1\] *)
  reconciled_removed : int;  (** stray rules removed by audits, total over runs *)
  reconciled_installed : int;  (** missing rules reinstalled by audits, total over runs *)
  invariant_violations : int;  (** total over runs; 0 when recovery is correct *)
  controller_crashes : int;
      (** crashes the controllers' robustness tallies count, total over runs *)
  completed : int;  (** tasks completed, total over runs *)
}

val default_rates : float list
(** [0; 0.01; 0.02; 0.05] controller crashes per epoch. *)

val default_seeds : int list

val default_checkpoint_interval : int
(** Epochs between checkpoints (20). *)

val sweep :
  ?checkpoint_interval:int ->
  ?seeds:int list ->
  ?rates:float list ->
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  point list
(** One full run with fail-over per (rate, seed), invariant checking
    forced on, aggregated per rate.
    @raise Invalid_argument if a rate is outside \[0, 1\],
    [checkpoint_interval <= 0] or [seeds] is empty. *)

val print_points : point list -> unit

val run : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** The crash-recovery sweep on the combined workload with DREAM.
    Returns per-rate satisfaction and invariant-violation counts; both
    gate, so each must equal its baseline exactly. *)
