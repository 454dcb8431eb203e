module Scenario = Dream_workload.Scenario
module Task_spec = Dream_tasks.Task_spec

let run ~quick =
  let base = Scenario.with_kind (Experiment.scenario ~quick) Task_spec.Hierarchical_heavy_hitter in
  let base = { base with Scenario.capacity = 1024 } in
  let sweep name show set xs = (name, List.map (fun x -> (show x, set x)) xs) in
  let sweeps =
    [
      sweep "accuracy bound"
        (fun b -> Printf.sprintf "%.0f%%" (b *. 100.0))
        (fun b -> { base with Scenario.accuracy_bound = b })
        [ 0.6; 0.7; 0.8; 0.9 ];
      (* Traffic stays calibrated to 8 Mb while the task threshold moves,
         so a smaller threshold genuinely means more (and smaller) HHHs to
         find. *)
      sweep "threshold (Mb)" (Printf.sprintf "%.0f")
        (fun th ->
          {
            base with
            Scenario.threshold = th;
            profile_of = Scenario.fixed_traffic_profile ~calibration:8.0;
          })
        [ 4.0; 8.0; 16.0; 32.0 ];
      sweep "switches per task" string_of_int
        (fun k -> { base with Scenario.switches_per_task = k })
        [ 2; 4; 8 ];
      sweep "duration (epochs)" string_of_int
        (fun d -> { base with Scenario.mean_duration = d })
        (List.map (fun factor -> base.Scenario.mean_duration * factor / 2) [ 1; 2; 4; 8 ]);
    ]
  in
  let cells =
    List.concat_map
      (fun (group, variants) ->
        List.concat_map
          (fun (x, scenario) ->
            List.map (Sweep.versus ~group x scenario) Experiment.standard_strategies)
          variants)
      sweeps
  in
  let table heading what columns =
    let section (group, _) =
      {
        Sweep.group;
        subheading = Some (Printf.sprintf "(%s) %s" group what);
        axes = [ group; "strategy" ];
      }
    in
    { Sweep.heading; sections = List.map section sweeps; columns }
  in
  Sweep.metrics
    (Sweep.run cells
       ~tables:
         [
           table "Figure 12: parameter sensitivity, satisfaction (HHH tasks, capacity 1024)"
             "satisfaction mean / 5th pct" [ Sweep.Mean; P5 ];
           table "Figure 13: parameter sensitivity, rejection and drop" "rejection / drop"
             [ Sweep.Reject; Drop ];
         ])
