module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Fault_model = Dream_fault.Fault_model

type point = {
  strategy : string;
  summary : Metrics.summary;
  mean_accuracy : float; (* over admitted tasks, in [0, 1] *)
}

let default_rates = [ 0.0; 0.02; 0.05; 0.1; 0.2 ]

let run_point ~fault_seed scenario strategy rate =
  let config =
    if rate <= 0.0 then Config.default
    else { Config.default with Config.faults = Some (Fault_model.uniform ~seed:fault_seed rate) }
  in
  let result = Experiment.run ~config scenario strategy in
  {
    strategy = result.Experiment.strategy;
    summary = result.Experiment.summary;
    mean_accuracy = Metrics.mean_accuracy result.Experiment.records;
  }

type aggregate = {
  agg_rate : float;
  agg_strategy : string;
  agg_runs : int;
  agg_satisfaction : Metrics.stat;
  agg_p5 : Metrics.stat;
  agg_accuracy : Metrics.stat;
  agg_drop_pct : Metrics.stat;
}

let default_seeds = [ 97; 193; 389 ]

let sweep_seeds ?(seeds = default_seeds) ?(rates = default_rates) scenario strategy =
  if seeds = [] then invalid_arg "Fault_sweep: at least one seed required";
  List.map
    (fun rate ->
      let points =
        List.map (fun fault_seed -> run_point ~fault_seed scenario strategy rate) seeds
      in
      let over f = Metrics.stat (List.map f points) in
      {
        agg_rate = rate;
        agg_strategy =
          (match points with
          | p :: _ -> p.strategy
          | [] -> Dream_alloc.Allocator.strategy_name strategy);
        agg_runs = List.length points;
        agg_satisfaction = over (fun p -> p.summary.Metrics.mean_satisfaction);
        agg_p5 = over (fun p -> p.summary.Metrics.p5_satisfaction);
        agg_accuracy = over (fun p -> p.mean_accuracy);
        agg_drop_pct = over (fun p -> p.summary.Metrics.drop_pct);
      })
    rates

let pm (s : Metrics.stat) = Printf.sprintf "%.1f±%.1f" s.mean s.stddev
let pm_frac (s : Metrics.stat) = Printf.sprintf "%.2f±%.2f" s.mean s.stddev

let print_aggregates aggs =
  Table.row [ "rate"; "runs"; "mean-sat±sd"; "p5-sat±sd"; "accuracy±sd"; "drop%±sd" ];
  List.iter
    (fun a ->
      Table.row
        [
          Printf.sprintf "%.2f" a.agg_rate;
          string_of_int a.agg_runs;
          pm a.agg_satisfaction;
          pm a.agg_p5;
          pm_frac a.agg_accuracy;
          pm a.agg_drop_pct;
        ])
    aggs

let run ~quick =
  let base = Experiment.scenario ~quick in
  let seeds = if quick then [ 97; 193 ] else default_seeds in
  Table.heading "Fault sweep: satisfaction/accuracy degradation vs failure rate (combined workload)";
  List.concat_map
    (fun strategy ->
      let name = Dream_alloc.Allocator.strategy_name strategy in
      let aggs = sweep_seeds ~seeds base strategy in
      Table.subheading name;
      print_aggregates aggs;
      List.concat_map
        (fun a ->
          let m suffix v =
            Dream_obs.Bench_snapshot.metric ~unit_:"pct"
              ~direction:Dream_obs.Bench_snapshot.Higher_better
              (Printf.sprintf "%s:%s@%.2f" name suffix a.agg_rate)
              v
          in
          [
            m "satisfaction" a.agg_satisfaction.mean;
            m "accuracy" (a.agg_accuracy.mean *. 100.0);
          ])
        aggs)
    [ Experiment.dream_strategy; Dream_alloc.Allocator.Equal ]
