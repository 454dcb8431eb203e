module Scenario = Dream_workload.Scenario
module Drive = Dream_workload.Drive
module Config = Dream_core.Config
module Controller = Dream_core.Controller
module Metrics = Dream_core.Metrics
module Fault_model = Dream_fault.Fault_model
module Snapshot = Dream_obs.Bench_snapshot

type point = {
  level : float;
  mode : string;
  summary : Metrics.summary;
  mean_accuracy : float; (* over admitted tasks, in [0, 1] *)
  deadline_ms : float;
  deadline_violations : int;
  worst_fetch_ms : float;
  max_staleness : int;
  storm_submissions : int;
}

let default_levels = [ 0.0; 0.25; 0.5; 1.0 ]

(* Experiment.run's loop (admission storms draw from the driver's storm
   pool) plus what this sweep measures: epochs whose modelled fetch time
   overran the deadline, read off the bundle's [model/fetch] spans, and the
   largest staleness any task reached. *)
let run_spec ?(telemetry = Dream_obs.Telemetry.create ()) ~mode ~level ~degraded spec scenario
    strategy =
  let config =
    { Config.default with Config.faults = Some spec; degraded; telemetry = Some telemetry }
  in
  let deadline_ms =
    let d = match degraded with Some d -> d | None -> Config.default_degraded in
    d.Config.deadline_fraction *. Dream_switch.Delay_model.epoch_ms
  in
  let drive = Drive.create ~config ~strategy scenario in
  let max_staleness = ref 0 in
  for _ = 1 to scenario.Scenario.total_epochs do
    Drive.step drive;
    max_staleness := max !max_staleness (Controller.max_staleness (Drive.controller drive))
  done;
  let controller = Drive.finish drive in
  let fetch_ms = Dream_obs.(Trace.spans (Telemetry.trace telemetry) ~phase:"model/fetch") in
  {
    level;
    mode;
    summary = Controller.summary controller;
    mean_accuracy = Metrics.mean_accuracy (Controller.records controller);
    deadline_ms;
    deadline_violations = List.length (List.filter (fun ms -> ms > deadline_ms +. 1e-6) fetch_ms);
    worst_fetch_ms = List.fold_left Float.max 0.0 fetch_ms;
    max_staleness = !max_staleness;
    storm_submissions = Drive.storm_submissions drive;
  }

let default_fault_seed = 97

let run_point ?telemetry ?(fault_seed = default_fault_seed)
    ?(degraded = Some Config.default_degraded) scenario strategy level =
  let mode = match degraded with Some _ -> "degraded" | None -> "baseline" in
  run_spec ?telemetry ~mode ~level ~degraded
    (Fault_model.adversity ~seed:fault_seed level)
    scenario strategy

let sweep ?fault_seed ~degraded ~levels scenario strategy =
  List.concat_map
    (fun level ->
      [
        run_point ?fault_seed ~degraded:(Some degraded) scenario strategy level;
        run_point ?fault_seed ~degraded:None scenario strategy level;
      ])
    levels

(* The acceptance experiment: partitions always take out exactly a quarter
   of the fleet.  With the 4 [Fault_model.partition_groups] and
   [partition_eligible = 1], only group 0 (switches congruent to 0 mod 4)
   can partition.  The default
   rate gives recurring windows with a roughly 50% duty cycle
   (rate * mean / (1 + rate * mean)); [~rate:1.0] makes the partition
   essentially permanent — the sustained extreme the figure also plots. *)
let quarter_partition_spec ~rate =
  {
    Fault_model.zero with
    Fault_model.seed = default_fault_seed;
    partition_rate = rate;
    mean_partition = 8.0;
    partition_eligible = 1;
  }

let print_points points =
  Table.row
    [
      "level"; "mode"; "mean-sat"; "p5-sat"; "drop%"; "ddl-viol"; "worst-fetch"; "max-stale";
      "sheds"; "brk-open"; "brk-skip"; "part-ep";
    ];
  List.iter
    (fun p ->
      let s = p.summary in
      let r = s.Metrics.robustness in
      Table.row
        [
          Printf.sprintf "%.2f" p.level;
          p.mode;
          Table.pct s.Metrics.mean_satisfaction;
          Table.pct s.Metrics.p5_satisfaction;
          Table.pct s.Metrics.drop_pct;
          string_of_int p.deadline_violations;
          Printf.sprintf "%.0fms" p.worst_fetch_ms;
          string_of_int p.max_staleness;
          string_of_int r.Metrics.sheds;
          string_of_int r.Metrics.breaker_opens;
          string_of_int r.Metrics.breaker_skips;
          string_of_int r.Metrics.partition_epochs;
        ])
    points

let run ~quick =
  let base = Experiment.scenario ~quick in
  let levels = if quick then [ 0.0; 0.5; 1.0 ] else default_levels in
  Table.heading
    "degraded mode: fast-degrade (breakers + deadline shedding) vs stall-baseline, by adversity \
     level";
  print_points (sweep ~degraded:Config.default_degraded ~levels base Experiment.dream_strategy);
  Table.subheading
    "25% partition acceptance (groups=4, eligible=1; recurring ~50% duty, plus the sustained \
     extreme)";
  let degraded = Some Config.default_degraded and recurring = quarter_partition_spec ~rate:0.12 in
  let acceptance ~mode ~level ~degraded spec =
    run_spec ~mode ~level ~degraded spec base Experiment.dream_strategy
  in
  let baseline =
    acceptance ~mode:"no-partition" ~level:0.0 ~degraded
      { Fault_model.zero with Fault_model.seed = default_fault_seed }
  in
  let partition = acceptance ~mode:"partition-25%" ~level:0.25 ~degraded recurring in
  let stall = acceptance ~mode:"stall-25%" ~level:0.25 ~degraded:None recurring in
  let sustained =
    acceptance ~mode:"sustained-25%" ~level:0.25 ~degraded (quarter_partition_spec ~rate:1.0)
  in
  print_points [ baseline; partition; stall; sustained ];
  let b = baseline.summary.Metrics.mean_satisfaction in
  let p = partition.summary.Metrics.mean_satisfaction in
  let drop = if b > 0.0 then (b -. p) /. b *. 100.0 else 0.0 in
  Format.fprintf Table.out
    "@.satisfaction drop under 25%% partition: %.1f%% (budget 15%%); deadline violations: %d@."
    drop partition.deadline_violations;
  (* The acceptance pair as snapshot metrics: all modelled quantities, so
     they reproduce exactly from the seed and gate on equality. *)
  let pct name direction v = Snapshot.metric ~unit_:"pct" ~direction name v in
  let count name v =
    Snapshot.metric ~unit_:"count" ~direction:Snapshot.Lower_better name (float_of_int v)
  in
  [
    pct "baseline_satisfaction" Snapshot.Higher_better b;
    pct "partition_satisfaction" Snapshot.Higher_better p;
    pct "satisfaction_drop_pct" Snapshot.Lower_better drop;
    Snapshot.metric ~unit_:"pct" "drop_budget_pct" 15.0;
    count "deadline_violations" partition.deadline_violations;
    Snapshot.metric ~unit_:"count" "stall_deadline_violations"
      (float_of_int stall.deadline_violations);
    Snapshot.metric ~unit_:"ms" ~direction:Snapshot.Lower_better "worst_fetch_ms"
      partition.worst_fetch_ms;
    count "max_staleness" partition.max_staleness;
    Snapshot.metric ~unit_:"count" "storm_submissions"
      (float_of_int partition.storm_submissions);
    pct "sustained_satisfaction" Snapshot.Higher_better
      sustained.summary.Metrics.mean_satisfaction;
  ]
