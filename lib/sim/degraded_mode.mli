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
  ?fault_seed:int ->
  degraded:Dream_core.Config.degraded ->
  levels:float list ->
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  point list
(** Per level, a fast-degrade run under [degraded] then a stall-baseline
    run. *)

val print_points : point list -> unit

val run : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** The full figure: the adversity sweep (degraded vs baseline per level)
    followed by the 25%-partition acceptance rows, printed as
    {!print_points} rows with modes [no-partition] (degraded mode on, no
    faults at all), [partition-25%] (a quarter of the fleet partitioned,
    recurring at a ~50% duty cycle), [stall-25%] (the same partition with
    degraded mode off) and [sustained-25%] (the partition held open
    back-to-back).  The acceptance pair — every [partition-25%] epoch
    inside its deadline, and its mean satisfaction within 15% of
    [no-partition]'s — is returned as the [BENCH_degraded_mode.json]
    metrics (the figure runner writes the snapshot). *)
