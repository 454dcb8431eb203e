module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Allocator = Dream_alloc.Allocator
module Snapshot = Dream_obs.Bench_snapshot

type cell = {
  key : string;
  group : string;
  labels : string list;
  scenario : Dream_workload.Scenario.t;
  config : Config.t;
  strategy : Allocator.strategy;
}

let cell ?(group = "") ?(config = Config.default) ~key labels scenario strategy =
  { key; group; labels; scenario; config; strategy }

let versus ?group ?config ?(suffix = "") x scenario strategy =
  let key = Allocator.strategy_name strategy ^ suffix in
  cell ?group ?config ~key [ x; key ] scenario strategy

type column = Mean | P5 | Reject | Drop

type section = { group : string; subheading : string option; axes : string list }

type table = { heading : string; sections : section list; columns : column list }

let table ?(group = "") heading ~axes columns =
  { heading; sections = [ { group; subheading = None; axes } ]; columns }

let column_name = function Mean -> "mean" | P5 -> "p5" | Reject -> "reject%" | Drop -> "drop%"

let column_value (s : Metrics.summary) = function
  | Mean -> s.Metrics.mean_satisfaction
  | P5 -> s.Metrics.p5_satisfaction
  | Reject -> s.Metrics.rejection_pct
  | Drop -> s.Metrics.drop_pct

let print results t =
  Table.heading t.heading;
  List.iter
    (fun (section : section) ->
      Option.iter Table.subheading section.subheading;
      Table.row (section.axes @ List.map column_name t.columns);
      List.iter
        (fun ((c : cell), r) ->
          if c.group = section.group then
            Table.row
              (c.labels
              @ List.map (fun col -> Table.pct (column_value r.Experiment.summary col)) t.columns))
        results)
    t.sections

let run ~tables cells =
  let results =
    List.map (fun c -> (c, Experiment.run ~config:c.config c.scenario c.strategy)) cells
  in
  List.iter (print results) tables;
  results

(* Runs are seed-deterministic, so these means reproduce exactly and gate
   on equality; each group's members are summed in cell order. *)
let metrics results =
  let keys = List.sort_uniq compare (List.map (fun ((c : cell), _) -> c.key) results) in
  List.concat_map
    (fun key ->
      let members =
        List.filter_map
          (fun ((c : cell), r) -> if c.key = key then Some r.Experiment.summary else None)
          results
      in
      List.map
        (fun (column, name, direction) ->
          Snapshot.metric ~unit_:"pct" ~direction (key ^ ":" ^ name)
            (Dream_util.Stats.mean (List.map (fun s -> column_value s column) members)))
        [
          (Mean, "mean_satisfaction", Snapshot.Higher_better);
          (P5, "p5_satisfaction", Snapshot.Higher_better);
          (Reject, "rejection_pct", Snapshot.Lower_better);
          (Drop, "drop_pct", Snapshot.Lower_better);
        ])
    keys
