(** Degraded-mode sweep: how the control loop behaves under sustained
    adversity — control-channel partitions, straggler switches and tenant
    admission storms — with the degraded-mode machinery (per-switch circuit
    breakers, the deadline-aware fetch scheduler with load shedding) either
    on ("fast-degrade") or off ("stall-baseline").

    Each point runs one scenario under
    {!Dream_fault.Fault_model.adversity} at the given level and reports
    satisfaction next to the degradation-specific signals: epochs whose
    modelled fetch time overran the enforced deadline, the worst such
    fetch time, the largest bounded-staleness level any task reached, and
    the shed / breaker / partition counters. *)

type point = {
  level : float;  (** adversity level in \[0, 1\] *)
  mode : string;  (** ["degraded"] or ["baseline"] (and the partition pair's labels) *)
  summary : Dream_core.Metrics.summary;
  mean_accuracy : float;  (** mean per-task scored accuracy over admitted tasks, in \[0, 1\] *)
  deadline_ms : float;  (** the enforced per-epoch fetch deadline this run was judged against *)
  deadline_violations : int;  (** epochs whose modelled fetch time exceeded [deadline_ms] *)
  worst_fetch_ms : float;  (** largest per-epoch modelled fetch time observed *)
  max_staleness : int;  (** largest bounded-staleness level any task reached *)
  storm_submissions : int;  (** extra tasks submitted on behalf of admission storms *)
}

val default_levels : float list
(** [0; 0.25; 0.5; 1] *)

val run_point :
  ?telemetry:Dream_obs.Telemetry.t ->
  ?config:Dream_core.Config.t ->
  ?fault_seed:int ->
  ?degraded:Dream_core.Config.degraded option ->
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  float ->
  point
(** One run at one adversity level.  [degraded] defaults to
    [Some Config.default_degraded] (fast-degrade); pass [None] for the
    stall-baseline.  Baseline runs are judged against the default deadline
    so the violation counts are comparable.  The run records into
    [telemetry] (default: a fresh bundle) and reads its modelled fetch
    times back from the bundle's [model/fetch] spans. *)

val sweep :
  ?config:Dream_core.Config.t ->
  ?fault_seed:int ->
  ?levels:float list ->
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  point list
(** Degraded and baseline runs, paired per level. *)

type quarter = {
  q_baseline : point;  (** degraded mode on, no faults at all *)
  q_partition : point;  (** degraded mode on, 25% of the fleet partitioned (default duty cycle) *)
  q_stall : point;  (** degraded mode off under the same partition — the stall-baseline *)
  q_sustained : point;  (** degraded mode on, the partition held open back-to-back *)
}

val run_quarter :
  ?config:Dream_core.Config.t ->
  ?fault_seed:int ->
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  quarter
(** The acceptance pair: the controller must keep every epoch inside its
    deadline and hold mean satisfaction within 15% of [q_baseline]. *)

val print_points : point list -> unit

val run : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** The full figure: the adversity sweep (degraded vs baseline per level)
    followed by the 25%-partition acceptance pair, whose numbers are
    returned as the [BENCH_degraded_mode.json] metrics (the figure runner
    writes the snapshot). *)
