module Scenario = Dream_workload.Scenario
module Drive = Dream_workload.Drive
module Controller = Dream_core.Controller
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Allocator = Dream_alloc.Allocator
module Snapshot = Dream_obs.Bench_snapshot

type result = {
  strategy : string;
  scenario : Scenario.t;
  summary : Metrics.summary;
  records : Metrics.record list;
  delay_samples : Controller.delay_sample list;
  rules_installed : int;
  rules_fetched : int;
  robustness : Metrics.robustness;
}

let dream_strategy = Allocator.Dream Dream_alloc.Dream_allocator.default_config

let standard_strategies = [ dream_strategy; Allocator.Equal; Allocator.Fixed 32 ]

let run ?(config = Config.default) (scenario : Scenario.t) strategy =
  let drive = Drive.create ~config ~strategy scenario in
  for _ = 1 to scenario.Scenario.total_epochs do
    Drive.step drive
  done;
  let controller = Drive.finish drive in
  {
    strategy = Allocator.strategy_name strategy;
    scenario;
    summary = Controller.summary controller;
    records = Controller.records controller;
    delay_samples = Controller.delay_samples controller;
    rules_installed = Controller.total_rules_installed controller;
    rules_fetched = Controller.total_rules_fetched controller;
    robustness = Controller.robustness controller;
  }

(* Runs are seed-deterministic, so the summary percentages reproduce
   exactly and can gate with a tight tolerance in the bench trajectory. *)
let gate_tolerance = 0.5

let summary_metrics ?(tolerance_pct = gate_tolerance) ~prefix (s : Metrics.summary) =
  let m name direction v = Snapshot.metric ~unit_:"pct" ~direction ~tolerance_pct (prefix ^ name) v in
  [
    m "mean_satisfaction" Snapshot.Higher_better s.Metrics.mean_satisfaction;
    m "p5_satisfaction" Snapshot.Higher_better s.Metrics.p5_satisfaction;
    m "rejection_pct" Snapshot.Lower_better s.Metrics.rejection_pct;
    m "drop_pct" Snapshot.Lower_better s.Metrics.drop_pct;
  ]

let grouped_summary_metrics ?(tolerance_pct = gate_tolerance) cells ~group_of ~summary_of =
  let groups = List.sort_uniq compare (List.map group_of cells) in
  List.concat_map
    (fun g ->
      let members = List.filter (fun c -> group_of c = g) cells in
      let mean f = Dream_util.Stats.mean (List.map (fun c -> f (summary_of c)) members) in
      let m name direction f =
        Snapshot.metric ~unit_:"pct" ~direction ~tolerance_pct
          (Printf.sprintf "%s:%s" g name) (mean f)
      in
      [
        m "mean_satisfaction" Snapshot.Higher_better (fun s -> s.Metrics.mean_satisfaction);
        m "p5_satisfaction" Snapshot.Higher_better (fun s -> s.Metrics.p5_satisfaction);
        m "rejection_pct" Snapshot.Lower_better (fun s -> s.Metrics.rejection_pct);
        m "drop_pct" Snapshot.Lower_better (fun s -> s.Metrics.drop_pct);
      ])
    groups
