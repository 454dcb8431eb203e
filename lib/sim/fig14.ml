module Scenario = Dream_workload.Scenario

let run ~quick =
  let base = { (Experiment.scenario ~quick) with Scenario.capacity = 1024 } in
  let cells =
    List.concat_map
      (fun n ->
        List.map
          (Sweep.versus (string_of_int n) { base with Scenario.num_tasks = n })
          Experiment.standard_strategies)
      [ 16; 32; 64; 128 ]
  in
  Sweep.metrics
    (Sweep.run cells
       ~tables:
         [
           Sweep.table "Figure 14: arrival-rate sensitivity (capacity 1024, combined workload)"
             ~axes:[ "arrivals"; "strategy" ] [ Mean; P5; Reject; Drop ];
         ])
