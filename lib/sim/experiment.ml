module Scenario = Dream_workload.Scenario
module Drive = Dream_workload.Drive
module Controller = Dream_core.Controller
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Allocator = Dream_alloc.Allocator
module Task_spec = Dream_tasks.Task_spec

type result = {
  strategy : string;
  summary : Metrics.summary;
  records : Metrics.record list;
  rules_installed : int;
  rules_fetched : int;
}

let dream_strategy = Allocator.Dream Dream_alloc.Dream_allocator.default_config

let standard_strategies = [ dream_strategy; Allocator.Equal; Allocator.Fixed 32 ]

(* Quick mode shrinks the population and moderately shortens durations,
   keeping the expected concurrency (and thus the contention regime) of the
   full-scale scenario while cutting simulated task-epochs to ~30%. *)
let quick_scale (s : Scenario.t) =
  let num_tasks = max 8 (s.Scenario.num_tasks * 2 / 5) in
  let window = max 40 (s.Scenario.arrival_window * 3 / 7) in
  let duration = max 40 (s.Scenario.mean_duration * 5 / 7) in
  {
    s with
    num_tasks;
    arrival_window = window;
    mean_duration = duration;
    min_duration = max 30 (s.Scenario.min_duration * 5 / 7);
    total_epochs = window + (2 * duration);
  }

let scenario ~quick = if quick then quick_scale Scenario.default else Scenario.default

let workloads_of (base : Scenario.t) =
  [
    ("HH", Scenario.with_kind base Task_spec.Heavy_hitter);
    ("HHH", Scenario.with_kind base Task_spec.Hierarchical_heavy_hitter);
    ("CD", Scenario.with_kind base Task_spec.Change_detection);
    ("Combined", base);
  ]

let run ?(config = Config.default) (scenario : Scenario.t) strategy =
  let drive = Drive.create ~config ~strategy scenario in
  for _ = 1 to scenario.Scenario.total_epochs do
    Drive.step drive
  done;
  let controller = Drive.finish drive in
  {
    strategy = Allocator.strategy_name strategy;
    summary = Controller.summary controller;
    records = Controller.records controller;
    rules_installed = Controller.total_rules_installed controller;
    rules_fetched = Controller.total_rules_fetched controller;
  }
