(** Fault-sweep experiment: how gracefully does the control loop degrade as
    the control channel and switches fail?

    Each point runs one scenario with {!Dream_fault.Fault_model.uniform}
    failure rates (fetch timeouts, counter loss, install failures at the
    sweep rate; crashes and perturbation at a tenth of it) and reports the
    paper's satisfaction metrics next to the robustness counters.  Rate 0
    runs without any fault model — the baseline every other point is
    compared against. *)

val default_rates : float list
(** [0; 0.02; 0.05; 0.1; 0.2] *)

(** {1 Multi-seed aggregation}

    One seed per point makes the sweep an anecdote; the aggregate runs
    each rate under several fault seeds and reports mean ± population
    stddev, so degradation trends can be told apart from fault-schedule
    luck. *)

type aggregate = {
  agg_rate : float;
  agg_strategy : string;
  agg_runs : int;  (** seeds aggregated *)
  agg_satisfaction : Dream_core.Metrics.stat;  (** mean satisfaction, percent *)
  agg_p5 : Dream_core.Metrics.stat;  (** 5th-percentile satisfaction, percent *)
  agg_accuracy : Dream_core.Metrics.stat;  (** mean scored accuracy, in \[0, 1\] *)
  agg_drop_pct : Dream_core.Metrics.stat;
}

val default_seeds : int list
(** [97; 193; 389] *)

val sweep_seeds :
  ?seeds:int list ->
  ?rates:float list ->
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  aggregate list
(** One run per (rate, seed), aggregated per rate.
    @raise Invalid_argument on an empty seed list. *)

val print_aggregates : aggregate list -> unit

val run : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** Sweep DREAM and Equal over {!default_rates} on the combined workload,
    multi-seed, reporting mean ± stddev.  Returns the per-rate mean
    satisfaction and accuracy for the benchmark snapshot. *)
