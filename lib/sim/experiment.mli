(** Run one scenario under one allocation strategy and collect the paper's
    metrics.  All randomness comes from the scenario seed, so a (scenario,
    strategy, config) triple is fully reproducible. *)

type result = {
  strategy : string;
  summary : Dream_core.Metrics.summary;
  records : Dream_core.Metrics.record list;
  rules_installed : int;
  rules_fetched : int;
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
    seed-deterministic, so these carry a direction and must equal their
    baseline exactly; wall-clock-derived numbers must instead be emitted
    with {!Dream_obs.Bench_snapshot.Info} direction. *)

val grouped_summary_metrics :
  'a list ->
  group_of:('a -> string) ->
  summary_of:('a -> Dream_core.Metrics.summary) ->
  Dream_obs.Bench_snapshot.metric list
(** Mean satisfaction / rejection / drop per group (e.g. per strategy),
    metric names ["<group>:<field>"]. *)
