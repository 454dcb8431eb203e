module Scenario = Dream_workload.Scenario
module Config = Dream_core.Config

(* Every (workload, capacity, strategy, mode) cell in that order, a mode
   being a config and the suffix its strategy names carry; the tables hold
   one section per workload, in name order. *)
let by_capacity ~satisfaction ~rejection ~modes workloads =
  let cells =
    List.concat_map
      (fun (group, scenario) ->
        List.concat_map
          (fun capacity ->
            List.concat_map
              (fun strategy ->
                List.map
                  (fun (config, suffix) ->
                    Sweep.versus ~group ~config ~suffix (string_of_int capacity)
                      { scenario with Scenario.capacity } strategy)
                  modes)
              Experiment.standard_strategies)
          [ 256; 512; 1024; 2048 ])
      workloads
  in
  let table heading what columns =
    let section group =
      {
        Sweep.group;
        subheading = Some (Printf.sprintf "%s workload: %s" group what);
        axes = [ "capacity"; "strategy" ];
      }
    in
    let groups = List.sort String.compare (List.map fst workloads) in
    { Sweep.heading; sections = List.map section groups; columns }
  in
  Sweep.metrics
    (Sweep.run cells
       ~tables:
         [
           table satisfaction "satisfaction (mean / 5th pct)" [ Sweep.Mean; P5 ];
           table rejection "rejection and drop ratios" [ Sweep.Reject; Drop ];
         ])

let run ~quick =
  by_capacity ~modes:[ (Config.default, "") ]
    ~satisfaction:"Figure 6: satisfaction vs switch capacity (prototype scale)"
    ~rejection:"Figure 7: rejection and drop vs switch capacity"
    (Experiment.workloads_of (Experiment.scenario ~quick))

(* Each strategy's simulator row, then its prototype row. *)
let run_prototype ~quick =
  let base = Experiment.scenario ~quick in
  by_capacity
    ~modes:[ (Config.default, ""); (Config.prototype, "_p") ]
    ~satisfaction:
      "Figure 8: satisfaction, prototype (_p: delay model + estimated accuracy) vs simulator"
    ~rejection:"Figure 9: rejection and drop, prototype vs simulator"
    (if quick then [ ("Combined", base) ]
     else List.sort (fun (a, _) (b, _) -> String.compare a b) (Experiment.workloads_of base))

let large_base =
  {
    Scenario.default with
    Scenario.num_switches = 16;
    num_tasks = 128;
    switches_per_task = 8;
    seed = 11;
  }

let run_large ~quick =
  let base = if quick then Experiment.quick_scale large_base else large_base in
  by_capacity ~modes:[ (Config.default, "") ]
    ~satisfaction:"Figure 10: satisfaction, large-scale simulation"
    ~rejection:"Figure 11: rejection and drop, large-scale simulation"
    (if quick then [ ("Combined", base) ] else Experiment.workloads_of base)
