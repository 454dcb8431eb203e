module Rng = Dream_util.Rng
module Prefix = Dream_prefix.Prefix
module Topology = Dream_traffic.Topology
module Generator = Dream_traffic.Generator
module Profile = Dream_traffic.Profile
module Epoch_data = Dream_traffic.Epoch_data
module Scenario = Dream_workload.Scenario
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Task = Dream_tasks.Task
module Task_spec = Dream_tasks.Task_spec
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Step_policy = Dream_alloc.Step_policy
module Sketch_hh = Dream_sketch.Sketch_hh
module Sampled_hh = Dream_sketch.Sampled_hh
module Stats = Dream_util.Stats

let satisfaction_metric ~name v =
  Dream_obs.Bench_snapshot.metric ~unit_:"pct"
    ~direction:Dream_obs.Bench_snapshot.Higher_better name v

let accuracy_signal_ablation ~base =
  Table.heading "Ablation: per-switch allocation signal (max(global, local) vs global only)";
  Table.row [ "signal"; "mean"; "p5"; "reject%"; "drop%" ];
  List.map
    (fun (label, metric_name, mode) ->
      let config = { Config.default with Config.accuracy_mode = mode } in
      let r = Experiment.run ~config base Experiment.dream_strategy in
      let s = r.Experiment.summary in
      Table.row
        [
          label;
          Table.pct s.Metrics.mean_satisfaction;
          Table.pct s.Metrics.p5_satisfaction;
          Table.pct s.Metrics.rejection_pct;
          Table.pct s.Metrics.drop_pct;
        ];
      satisfaction_metric
        ~name:(Printf.sprintf "signal_%s_satisfaction" metric_name)
        s.Metrics.mean_satisfaction)
    [ ("max(g,l)", "overall", Task.Overall); ("global", "global_only", Task.Global_only) ]

let step_policy_ablation ~base =
  Table.heading "Ablation: step policy driving the full allocator";
  Table.row [ "policy"; "mean"; "p5"; "reject%"; "drop%" ];
  List.map
    (fun policy ->
      let strategy =
        Allocator.Dream { Dream_allocator.default_config with Dream_allocator.policy }
      in
      let r = Experiment.run base strategy in
      let s = r.Experiment.summary in
      Table.row
        [
          Step_policy.to_string policy;
          Table.pct s.Metrics.mean_satisfaction;
          Table.pct s.Metrics.p5_satisfaction;
          Table.pct s.Metrics.rejection_pct;
          Table.pct s.Metrics.drop_pct;
        ];
      satisfaction_metric
        ~name:(Printf.sprintf "policy_%s_satisfaction" (Step_policy.to_string policy))
        s.Metrics.mean_satisfaction)
    Step_policy.all

(* One HH task measured three ways at the same resource count: the TCAM
   pipeline (entries), a Count-Min sketch (cells) and NetFlow-style flow
   sampling (records).  Their error shapes differ: TCAMs lose recall while
   drilling, sketches lose precision to collisions, sampling loses both. *)
let tcam_vs_sketch ~epochs =
  Table.heading
    "Ablation: TCAM vs Count-Min sketch vs flow sampling, accuracy vs resources (one HH task)";
  Table.row
    [ "resources"; "tcam-recall"; "sketch-recall"; "sketch-prec"; "sample-recall"; "sample-prec" ];
  List.concat_map
    (fun resources ->
      let rng = Rng.create 301 in
      let filter = Prefix.of_string "10.16.0.0/12" in
      let topology = Topology.create rng ~filter ~num_switches:2 ~switches_per_task:2 in
      let spec =
        Task_spec.make ~kind:Task_spec.Heavy_hitter ~filter ~leaf_length:24 ~threshold:8.0 ()
      in
      let profile =
        { (Profile.default ~threshold:8.0) with Profile.heavy_count = 40; medium_count = 60 }
      in
      let generator = Generator.create (Rng.split rng) ~topology ~profile in
      let storage = Dream_tasks.Storage.create () in
      let task = Task.create ~id:0 ~spec ~topology ~storage () in
      let ground_truth = Dream_tasks.Ground_truth.create ~storage spec in
      let allocations = Array.make (Topology.switches_per_task topology) (resources / 2) in
      let workspace = Dream_tasks.Divide_merge.create () in
      let sketch = Sketch_hh.create ~spec ~cells:resources ~seed:17 in
      let sampler = Sampled_hh.create ~spec ~budget:resources ~seed:23 () in
      let tcam_recalls = ref [] and sk_recalls = ref [] and sk_precisions = ref [] in
      let sa_recalls = ref [] and sa_precisions = ref [] in
      for epoch = 0 to epochs - 1 do
        let data = Generator.next generator in
        (* TCAM side. *)
        Task.read_traffic task data;
        ignore (Task.estimate task ~epoch);
        let recall = Dream_tasks.Ground_truth.evaluate ground_truth data (Task.items task) in
        Task.configure task ~workspace ~allocations;
        tcam_recalls := recall :: !tcam_recalls;
        (* Sketch side: same combined traffic, same resource count. *)
        let combined = data.Epoch_data.combined in
        Sketch_hh.observe_epoch sketch combined;
        sk_recalls := Sketch_hh.real_accuracy sketch combined ~precision:false :: !sk_recalls;
        sk_precisions := Sketch_hh.real_accuracy sketch combined ~precision:true :: !sk_precisions;
        Sampled_hh.observe_epoch sampler combined;
        sa_recalls := Sampled_hh.real_accuracy sampler combined ~precision:false :: !sa_recalls;
        sa_precisions :=
          Sampled_hh.real_accuracy sampler combined ~precision:true :: !sa_precisions
      done;
      Table.row
        [
          string_of_int resources;
          Table.f2 (Stats.mean !tcam_recalls);
          Table.f2 (Stats.mean !sk_recalls);
          Table.f2 (Stats.mean !sk_precisions);
          Table.f2 (Stats.mean !sa_recalls);
          Table.f2 (Stats.mean !sa_precisions);
        ];
      if resources = 256 then
        [
          satisfaction_metric ~name:"tcam_recall_256" (Stats.mean !tcam_recalls);
          satisfaction_metric ~name:"sketch_recall_256" (Stats.mean !sk_recalls);
          satisfaction_metric ~name:"sketch_precision_256" (Stats.mean !sk_precisions);
          satisfaction_metric ~name:"sample_recall_256" (Stats.mean !sa_recalls);
          satisfaction_metric ~name:"sample_precision_256" (Stats.mean !sa_precisions);
        ]
      else [])
    [ 64; 128; 256; 512; 1024 ]

(* Why the paper abandoned its hardware switch: throttle the per-epoch
   rule-update rate and watch satisfaction collapse (Section 6.1 measured
   1 s for 256 rules on the Pica8 3290 — i.e. a budget of ~256 per 1 s
   epoch, and a tenth of that for 512-rule batches). *)
let hardware_ablation ~base =
  Table.heading "Ablation: hardware rule-installation rate (updates per switch per epoch)";
  Table.row [ "budget"; "mean"; "p5"; "drop%" ];
  List.map
    (fun (label, budget) ->
      let config =
        match budget with
        | None -> Config.default
        | Some installs_per_epoch -> Config.hardware ~installs_per_epoch
      in
      let r = Experiment.run ~config base Experiment.dream_strategy in
      let s = r.Experiment.summary in
      Table.row
        [
          label;
          Table.pct s.Metrics.mean_satisfaction;
          Table.pct s.Metrics.p5_satisfaction;
          Table.pct s.Metrics.drop_pct;
        ];
      satisfaction_metric
        ~name:(Printf.sprintf "hardware_%s_satisfaction" label)
        s.Metrics.mean_satisfaction)
    [ ("software", None); ("512", Some 512); ("256", Some 256); ("64", Some 64) ]

let run ~quick =
  let base =
    let s = if quick then Fig06.quick_scale Scenario.default else Scenario.default in
    { s with Scenario.capacity = 1024 }
  in
  let signal = accuracy_signal_ablation ~base in
  let policies = step_policy_ablation ~base in
  let hardware = hardware_ablation ~base in
  let sensors = tcam_vs_sketch ~epochs:(if quick then 60 else 150) in
  signal @ policies @ hardware @ sensors
