module Scenario = Dream_workload.Scenario
module Allocator = Dream_alloc.Allocator

let run ~quick =
  let base = Experiment.scenario ~quick in
  let cells =
    List.concat_map
      (fun capacity ->
        List.map
          (fun k ->
            Sweep.versus (string_of_int capacity) { base with Scenario.capacity } (Allocator.Fixed k))
          [ 8; 16; 32; 64 ])
      [ 256; 512; 1024; 2048 ]
  in
  Sweep.metrics
    (Sweep.run cells
       ~tables:
         [
           Sweep.table "Figure 16: Fixed_k allocation configurations (combined workload)"
             ~axes:[ "capacity"; "strategy" ] [ Mean; P5; Reject ];
         ])
