module Scenario = Dream_workload.Scenario
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Config = Dream_core.Config

let run ~quick =
  let base = { (Experiment.scenario ~quick) with Scenario.capacity = 1024 } in
  let cells =
    List.concat_map
      (fun (label, fraction) ->
        List.map
          (fun interval ->
            Sweep.cell
              ~key:(Printf.sprintf "headroom_%s_interval_%d" label interval)
              ~config:{ Config.default with Config.allocation_interval = interval }
              [ label; string_of_int interval ]
              base
              (Allocator.Dream
                 { Dream_allocator.default_config with Dream_allocator.headroom_fraction = fraction }))
          [ 2; 4; 8; 16 ])
      [ ("none", 0.0); ("1%", 0.01); ("5%", 0.05); ("10%", 0.1) ]
  in
  Sweep.metrics
    (Sweep.run cells
       ~tables:
         [
           Sweep.table "Figure 15: headroom size x allocation interval (DREAM, capacity 1024)"
             ~axes:[ "headroom"; "interval" ] [ Mean; P5; Reject; Drop ];
         ])
