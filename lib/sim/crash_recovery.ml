module Scenario = Dream_workload.Scenario
module Drive = Dream_workload.Drive
module Controller = Dream_core.Controller
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Fault_model = Dream_fault.Fault_model
module Journal = Dream_recovery.Journal
module Stats = Dream_util.Stats

type run_result = {
  summary : Metrics.summary;
  mean_accuracy : float;
  crashes : int;
  reconverge_epochs : float list;
  accuracy_dips : float list;
}

type point = {
  crash_rate : float;
  runs : int;
  crashes : float;
  satisfaction : Metrics.stat;
  accuracy : Metrics.stat;
  reconverge : Metrics.stat;
  dip : Metrics.stat;
  reconciled_removed : int;
  reconciled_installed : int;
  invariant_violations : int;
  controller_crashes : int;
  completed : int;
}

let default_rates = [ 0.0; 0.01; 0.02; 0.05 ]
let default_seeds = [ 211; 499; 733 ]
let default_checkpoint_interval = 20

(* Recovered: mean smoothed estimated accuracy back within 5% of its
   pre-crash level. *)
let reconverge_target = 0.95

let crash_spec ~seed rate =
  if rate < 0.0 || rate > 1.0 || Float.is_nan rate then
    invalid_arg "Crash_recovery: controller crash rate must be in [0, 1]";
  { Fault_model.zero with Fault_model.seed; controller_crash_rate = rate }

let mean_estimated_accuracy controller =
  match
    List.filter_map
      (fun id -> Controller.smoothed_accuracy controller ~task_id:id)
      (Controller.active_task_ids controller)
  with
  | [] -> None
  | accs -> Some (Stats.mean accs)

let run_once ~checkpoint_interval ~fault_seed ~crash_rate (scenario : Scenario.t) strategy =
  let config =
    {
      Config.default with
      Config.faults = Some (crash_spec ~seed:fault_seed crash_rate);
      check_invariants = true;
    }
  in
  let drive = Drive.create ~journal:(Journal.memory ()) ~config ~strategy scenario in
  Drive.checkpoint drive;
  let crashes = ref 0 in
  let reconverge = ref [] in
  let dips = ref [] in
  (* (first post-recovery epoch, pre-crash accuracy) while reconverging *)
  let tracking = ref None in
  for epoch = 0 to scenario.Scenario.total_epochs - 1 do
    if epoch > 0 && epoch mod checkpoint_interval = 0 then Drive.checkpoint drive;
    Drive.arrive drive;
    let baseline = mean_estimated_accuracy (Drive.controller drive) in
    Drive.tick drive;
    (match (!tracking, mean_estimated_accuracy (Drive.controller drive)) with
    | Some (since, target), Some acc when acc >= reconverge_target *. target ->
      reconverge := float_of_int (epoch - since + 1) :: !reconverge;
      tracking := None
    | Some _, None ->
      (* every task alive at the crash has ended: nothing left to watch *)
      tracking := None
    | _ -> ());
    if Controller.controller_crash_pending (Drive.controller drive) then begin
      incr crashes;
      match Drive.fail_over drive with
      | Error msg -> failwith ("Crash_recovery: fail-over failed: " ^ msg)
      | Ok () -> (
        match (baseline, mean_estimated_accuracy (Drive.controller drive)) with
        | Some before, Some after ->
          dips := Float.max 0.0 (before -. after) :: !dips;
          tracking := Some (epoch + 1, before)
        | Some before, None -> tracking := Some (epoch + 1, before)
        | None, _ -> ())
    end
  done;
  let controller = Drive.finish drive in
  {
    summary = Controller.summary controller;
    mean_accuracy = Metrics.mean_accuracy (Controller.records controller);
    crashes = !crashes;
    reconverge_epochs = List.rev !reconverge;
    accuracy_dips = List.rev !dips;
  }

let sweep ?(checkpoint_interval = default_checkpoint_interval) ?(seeds = default_seeds)
    ?(rates = default_rates) scenario strategy =
  if seeds = [] then invalid_arg "Crash_recovery: at least one seed required";
  if checkpoint_interval <= 0 then invalid_arg "Crash_recovery: checkpoint interval must be > 0";
  List.map
    (fun rate ->
      let runs =
        List.map
          (fun fault_seed ->
            run_once ~checkpoint_interval ~fault_seed ~crash_rate:rate scenario strategy)
          seeds
      in
      let sum f = List.fold_left (fun acc r -> acc + f r.summary) 0 runs in
      let sum_rob f = sum (fun s -> f s.Metrics.robustness) in
      {
        crash_rate = rate;
        runs = List.length runs;
        crashes = Stats.mean (List.map (fun (r : run_result) -> float_of_int r.crashes) runs);
        satisfaction = Metrics.stat (List.map (fun r -> r.summary.Metrics.mean_satisfaction) runs);
        accuracy = Metrics.stat (List.map (fun r -> r.mean_accuracy) runs);
        reconverge = Metrics.stat (List.concat_map (fun r -> r.reconverge_epochs) runs);
        dip = Metrics.stat (List.concat_map (fun r -> r.accuracy_dips) runs);
        reconciled_removed = sum_rob (fun r -> r.Metrics.reconcile_removed);
        reconciled_installed = sum_rob (fun r -> r.Metrics.reconcile_installed);
        invariant_violations = sum_rob (fun r -> r.Metrics.invariant_violations);
        controller_crashes = sum_rob (fun r -> r.Metrics.controller_crashes);
        completed = sum (fun s -> s.Metrics.completed);
      })
    rates

(* Satisfaction stats are already percentages; accuracies and dips are in
   [0, 1] and get scaled for display. *)
let pm (s : Metrics.stat) = Printf.sprintf "%.1f±%.1f" s.mean s.stddev
let pm_frac (s : Metrics.stat) = pm { mean = s.mean *. 100.0; stddev = s.stddev *. 100.0 }

let print_points points =
  Table.row
    [
      "rate";
      "runs";
      "crashes";
      "sat%±sd";
      "acc%±sd";
      "reconv-ep";
      "dip%±sd";
      "reconciled";
      "inv-viol";
    ];
  List.iter
    (fun p ->
      Table.row
        [
          Printf.sprintf "%.2f" p.crash_rate;
          string_of_int p.runs;
          Printf.sprintf "%.1f" p.crashes;
          pm p.satisfaction;
          pm_frac p.accuracy;
          pm p.reconverge;
          pm_frac p.dip;
          Printf.sprintf "-%d +%d" p.reconciled_removed p.reconciled_installed;
          string_of_int p.invariant_violations;
        ])
    points

let run ~quick =
  let scenario = Experiment.scenario ~quick in
  let seeds = if quick then [ 211; 499 ] else default_seeds in
  let rates = if quick then [ 0.0; 0.02; 0.05 ] else default_rates in
  Table.heading
    "Crash recovery: fail-over from checkpoint + journal vs controller crash rate (combined \
     workload, DREAM)";
  let points = sweep ~seeds ~rates scenario Experiment.dream_strategy in
  print_points points;
  let module S = Dream_obs.Bench_snapshot in
  List.concat_map
    (fun p ->
      [
        S.metric ~unit_:"pct" ~direction:S.Higher_better
          (Printf.sprintf "satisfaction@%.2f" p.crash_rate)
          p.satisfaction.mean;
        S.metric ~unit_:"count" ~direction:S.Lower_better
          (Printf.sprintf "invariant_violations@%.2f" p.crash_rate)
          (float_of_int p.invariant_violations);
      ])
    points
