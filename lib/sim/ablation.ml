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
        let recall = (Dream_tasks.Ground_truth.evaluate ground_truth data (Task.items task)).real in
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

(* The three Experiment.run ablations, each cell keyed by its headline
   metric's name.  The signal table runs max(global, local) against global
   accuracy alone; the step-policy table drives the full allocator with
   each policy; the hardware table shows why the paper abandoned its
   hardware switch: throttle the per-epoch rule-update rate and watch
   satisfaction collapse (Section 6.1 measured 1 s for 256 rules on the
   Pica8 3290 — i.e. a budget of ~256 per 1 s epoch, and a tenth of that
   for 512-rule batches). *)
let design_ablations ~base =
  let cell group name label ?config strategy =
    Sweep.cell ~group ?config ~key:(Printf.sprintf "%s_%s_satisfaction" group name) [ label ]
      base strategy
  in
  let signal =
    List.map
      (fun (label, name, mode) ->
        cell "signal" name label
          ~config:{ Config.default with Config.accuracy_mode = mode }
          Experiment.dream_strategy)
      [ ("max(g,l)", "overall", Task.Overall); ("global", "global_only", Task.Global_only) ]
  in
  let policies =
    List.map
      (fun policy ->
        let name = Step_policy.to_string policy in
        cell "policy" name name
          (Allocator.Dream { Dream_allocator.default_config with Dream_allocator.policy }))
      Step_policy.all
  in
  let hardware =
    List.map
      (fun (label, config) -> cell "hardware" label label ~config Experiment.dream_strategy)
      (("software", Config.default)
      :: List.map
           (fun n -> (string_of_int n, Config.hardware ~installs_per_epoch:n))
           [ 512; 256; 64 ])
  in
  let all = [ Sweep.Mean; P5; Reject; Drop ] in
  Sweep.run (signal @ policies @ hardware)
    ~tables:
      [
        Sweep.table ~group:"signal"
          "Ablation: per-switch allocation signal (max(global, local) vs global only)"
          ~axes:[ "signal" ] all;
        Sweep.table ~group:"policy" "Ablation: step policy driving the full allocator"
          ~axes:[ "policy" ] all;
        Sweep.table ~group:"hardware"
          "Ablation: hardware rule-installation rate (updates per switch per epoch)"
          ~axes:[ "budget" ] [ Mean; P5; Drop ];
      ]
  |> List.map (fun ((c : Sweep.cell), r) ->
         satisfaction_metric ~name:c.key r.Experiment.summary.Metrics.mean_satisfaction)

let run ~quick =
  let design = design_ablations ~base:{ (Experiment.scenario ~quick) with Scenario.capacity = 1024 } in
  design @ tcam_vs_sketch ~epochs:(if quick then 60 else 150)
