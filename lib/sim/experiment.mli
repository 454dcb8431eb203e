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

val quick_scale : Dream_workload.Scenario.t -> Dream_workload.Scenario.t
(** Time-compress a scenario (half window, durations and length) keeping
    the same expected concurrency. *)

val scenario : quick:bool -> Dream_workload.Scenario.t
(** {!Dream_workload.Scenario.default}, through {!quick_scale} when
    [quick]. *)

val workloads_of : Dream_workload.Scenario.t -> (string * Dream_workload.Scenario.t) list
(** The four workloads: HH, HHH, CD, Combined. *)
