(** Run one scenario under one allocation strategy and collect the paper's
    metrics.  All randomness comes from the scenario seed, so a (scenario,
    strategy, config) triple is fully reproducible. *)

type result = {
  strategy : string;
  scenario : Dream_workload.Scenario.t;
  summary : Dream_core.Metrics.summary;
  records : Dream_core.Metrics.record list;
  rules_installed : int;
  rules_fetched : int;
  robustness : Dream_core.Metrics.robustness;
      (** fault/recovery counters; {!Dream_core.Metrics.no_faults} unless
          the config carries a fault spec *)
}

val run :
  ?config:Dream_core.Config.t ->
  (* default: {!Dream_core.Config.default} *)
  Dream_workload.Scenario.t ->
  Dream_alloc.Allocator.strategy ->
  result

val dream_strategy : Dream_alloc.Allocator.strategy
(** DREAM with its default configuration. *)

val standard_strategies : Dream_alloc.Allocator.strategy list
(** The paper's comparison set: DREAM, Equal, Fixed_32. *)

(** {1 Benchmark-snapshot helpers}

    Figure harnesses report their headline numbers as
    {!Dream_obs.Bench_snapshot.metric} values.  Simulation outputs are
    seed-deterministic, so these gate with a tight default tolerance
    ({!gate_tolerance}); wall-clock-derived numbers must instead be
    emitted with {!Dream_obs.Bench_snapshot.Info} direction. *)

val gate_tolerance : float
(** Default tolerance (percent) for deterministic simulation metrics. *)

val grouped_summary_metrics :
  ?tolerance_pct:float ->
  'a list ->
  group_of:('a -> string) ->
  summary_of:('a -> Dream_core.Metrics.summary) ->
  Dream_obs.Bench_snapshot.metric list
(** Mean satisfaction / rejection / drop per group (e.g. per strategy),
    metric names ["<group>:<field>"]. *)
