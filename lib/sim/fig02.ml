module Rng = Dream_util.Rng
module Prefix = Dream_prefix.Prefix
module Topology = Dream_traffic.Topology
module Generator = Dream_traffic.Generator
module Profile = Dream_traffic.Profile
module Epoch_data = Dream_traffic.Epoch_data
module Task_spec = Dream_tasks.Task_spec
module Task = Dream_tasks.Task
module Items = Dream_tasks.Items
module Ground_truth = Dream_tasks.Ground_truth
module Timeseries = Dream_util.Timeseries

(* A growing heavy-hitter population, as in the paper's trace where the
   recall of a fixed budget degrades once more HHs appear. *)
let profile ~threshold =
  {
    (Profile.default ~threshold) with
    Profile.heavy_count = 80;
    medium_count = 120;
    small_count = 200;
    switch_skew = 0.9;
    phases =
      [
        { Profile.start_epoch = 0; heavy_scale = 0.5 };
        { Profile.start_epoch = 80; heavy_scale = 1.0 };
        { Profile.start_epoch = 160; heavy_scale = 2.0 };
        { Profile.start_epoch = 240; heavy_scale = 3.0 };
      ];
  }

type setup = {
  task : Task.t;
  generator : Generator.t;
  ground_truth : Ground_truth.t;
  allocations : int array;
  spec : Task_spec.t;
  workspace : Dream_tasks.Divide_merge.t;
}

let make_setup ~seed ~resources =
  let rng = Rng.create seed in
  let filter = Prefix.of_string "10.16.0.0/12" in
  let topology = Topology.create rng ~filter ~num_switches:2 ~switches_per_task:2 in
  let spec =
    Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
  in
  let generator = Generator.create (Rng.split rng) ~topology ~profile:(profile ~threshold:8.0) in
  let storage = Dream_tasks.Storage.create () in
  let task = Task.create ~id:0 ~spec ~topology ~storage () in
  let allocations = Array.make (Topology.switches_per_task topology) (resources / 2) in
  {
    task;
    generator;
    ground_truth = Ground_truth.create ~storage spec;
    allocations;
    spec;
    workspace = Dream_tasks.Divide_merge.create ();
  }

(* One epoch of the Algorithm 1 loop, bypassing the TCAM simulator: read
   counters straight off the per-switch aggregates. *)
let step s ~epoch =
  let data = Generator.next s.generator in
  Task.read_traffic s.task data;
  ignore (Task.estimate s.task ~epoch);
  Task.configure s.task ~workspace:s.workspace ~allocations:s.allocations;
  data

let recall_series ~seed ~resources ~epochs ~bin =
  let s = make_setup ~seed ~resources in
  let raw = ref [] in
  for epoch = 0 to epochs - 1 do
    let data = step s ~epoch in
    raw := (epoch, (Ground_truth.evaluate s.ground_truth data (Task.items s.task)).real) :: !raw
  done;
  Timeseries.binned !raw ~bin

let per_switch_recall (spec : Task_spec.t) data items sw =
  let view = Epoch_data.switch_view data sw in
  let truth_sw = Ground_truth.true_heavy_hitters spec view in
  let hits = Items.common items truth_sw in
  let total = Items.length truth_sw in
  if total = 0 then 1.0 else float_of_int hits /. float_of_int total

let per_switch_series ~seed ~resources ~epochs ~bin =
  let s = make_setup ~seed ~resources in
  let raw0 = ref [] and raw1 = ref [] in
  for epoch = 0 to epochs - 1 do
    let data = step s ~epoch in
    let items = Task.items s.task in
    (* Keep the CD-style ground-truth state advancing consistently. *)
    ignore (Ground_truth.evaluate s.ground_truth data items);
    raw0 := (epoch, per_switch_recall s.spec data items 0) :: !raw0;
    raw1 := (epoch, per_switch_recall s.spec data items 1) :: !raw1
  done;
  (Timeseries.binned !raw0 ~bin, Timeseries.binned !raw1 ~bin)

let mean_recall series = Dream_util.Stats.mean (List.map (fun p -> p.Timeseries.value) series)

let points series =
  List.map (fun (p : Timeseries.point) -> (string_of_int p.epoch, p.value)) series

let run ~quick =
  let epochs = if quick then 160 else 320 in
  let bin = if quick then 20 else 40 in
  Table.heading "Figure 2a: HH recall over time, fixed counter budgets";
  let budget_means =
    List.map
      (fun resources ->
        let series = recall_series ~seed:31 ~resources ~epochs ~bin in
        Table.series ~name:(Printf.sprintf "%d counters" resources) (points series);
        Format.fprintf Table.out "  %a@." (Timeseries.pp_series ~name:"recall") series;
        (resources, mean_recall series))
      [ 256; 512; 1024; 2048 ]
  in
  Table.heading "Figure 2b: per-switch recall diverges (512 counters, skewed split)";
  let s0, s1 = per_switch_series ~seed:31 ~resources:512 ~epochs ~bin in
  Table.series ~name:"switch 0" (points s0);
  Table.series ~name:"switch 1" (points s1);
  let m name v =
    Dream_obs.Bench_snapshot.metric ~direction:Dream_obs.Bench_snapshot.Higher_better name v
  in
  List.map (fun (r, v) -> m (Printf.sprintf "mean_recall_%d" r) v) budget_means
  @ [ m "switch0_mean_recall" (mean_recall s0); m "switch1_mean_recall" (mean_recall s1) ]
