(* Integration tests for dream.sim: the experiment runner end-to-end on a
   small scenario, the step-policy simulation behind Figure 4, and the
   figure registry. *)

module Task_spec = Dream_tasks.Task_spec
module Scenario = Dream_workload.Scenario
module Metrics = Dream_core.Metrics
module Config = Dream_core.Config
module Telemetry = Dream_obs.Telemetry
module Trace = Dream_obs.Trace
module Allocator = Dream_alloc.Allocator
module Step_policy = Dream_alloc.Step_policy
module Experiment = Dream_sim.Experiment
module Fig04 = Dream_sim.Fig04
module Fig02 = Dream_sim.Fig02
module Figures = Dream_sim.Figures

(* Small but non-trivial: ~8 concurrent tasks on 4 switches. *)
let small =
  {
    Scenario.default with
    Scenario.num_switches = 4;
    switches_per_task = 4;
    num_tasks = 12;
    arrival_window = 60;
    mean_duration = 40;
    min_duration = 20;
    total_epochs = 120;
    capacity = 512;
  }

let test_experiment_runs () =
  let bundle = Telemetry.create () in
  let r =
    Experiment.run
      ~config:{ Config.default with Config.telemetry = Some bundle }
      small Experiment.dream_strategy
  in
  Alcotest.(check string) "strategy name" "DREAM" r.Experiment.strategy;
  Alcotest.(check int) "all submissions accounted" 12 r.Experiment.summary.Metrics.submitted;
  Alcotest.(check int) "model/fetch span per epoch" 120
    (List.length (Trace.spans (Telemetry.trace bundle) ~phase:"model/fetch"));
  Alcotest.(check bool) "some satisfaction" true
    (r.Experiment.summary.Metrics.mean_satisfaction > 30.0)

let test_experiment_deterministic () =
  let a = Experiment.run small Experiment.dream_strategy in
  let b = Experiment.run small Experiment.dream_strategy in
  Alcotest.(check (float 1e-9)) "same satisfaction"
    a.Experiment.summary.Metrics.mean_satisfaction b.Experiment.summary.Metrics.mean_satisfaction;
  Alcotest.(check int) "same rules installed" a.Experiment.rules_installed
    b.Experiment.rules_installed

let test_experiment_baselines_run () =
  List.iter
    (fun strategy ->
      let r = Experiment.run small strategy in
      Alcotest.(check bool) "summary sane" true
        (r.Experiment.summary.Metrics.mean_satisfaction >= 0.0
        && r.Experiment.summary.Metrics.mean_satisfaction <= 100.0))
    [ Allocator.Equal; Allocator.Fixed 32 ]

let test_dream_beats_equal_under_overload () =
  (* The paper's headline: under overload, DREAM's admitted tasks stay
     satisfied while Equal starves everyone. *)
  let overloaded = { small with Scenario.capacity = 128; num_tasks = 16 } in
  let dream = Experiment.run overloaded Experiment.dream_strategy in
  let equal = Experiment.run overloaded Allocator.Equal in
  Alcotest.(check bool)
    (Printf.sprintf "DREAM %.1f > Equal %.1f"
       dream.Experiment.summary.Metrics.mean_satisfaction
       equal.Experiment.summary.Metrics.mean_satisfaction)
    true
    (dream.Experiment.summary.Metrics.mean_satisfaction
    > equal.Experiment.summary.Metrics.mean_satisfaction);
  Alcotest.(check bool) "DREAM rejected some tasks" true
    (dream.Experiment.summary.Metrics.rejected > 0);
  Alcotest.(check int) "Equal rejected none" 0 equal.Experiment.summary.Metrics.rejected

let test_incremental_updates_dominate () =
  (* Section 6.5: most counters do not change between epochs, so fetches
     far outnumber installs. *)
  let r = Experiment.run small Experiment.dream_strategy in
  Alcotest.(check bool) "fetched >> installed" true
    (r.Experiment.rules_fetched > 3 * r.Experiment.rules_installed)

(* ---- Figure 4 policy simulation ---- *)

let test_fig4_mm_converges_best () =
  let metrics, _ = Fixtures.printed (fun () -> Fig04.run ~quick:false) in
  let mae policy = Fixtures.metric metrics ("mae_" ^ Step_policy.to_string policy) in
  let mm = mae Step_policy.MM and am = mae Step_policy.AM and aa = mae Step_policy.AA in
  Alcotest.(check bool)
    (Printf.sprintf "MM (%.0f) better than AM (%.0f)" mm am)
    true (mm < am);
  Alcotest.(check bool)
    (Printf.sprintf "MM (%.0f) better than AA (%.0f)" mm aa)
    true (mm < aa)

(* The points printed under the series heading [name ^ ":"], by x. *)
let printed_series text name =
  let rec find = function
    | [] -> Alcotest.failf "no %s series printed" name
    | [ heading ] :: rest when heading = name ^ ":" -> points rest
    | _ :: rest -> find rest
  and points = function [ x; v ] :: rest -> (x, float_of_string v) :: points rest | _ -> [] in
  find (Fixtures.rows text)

let test_fig4_tracks_goal () =
  let _, text = Fixtures.printed (fun () -> Fig04.run ~quick:false) in
  let goal = printed_series text "Goal" and mm = printed_series text "MM" in
  (* At each plateau's last sampled epoch the MM allocation is near the
     goal. *)
  List.iter
    (fun epoch ->
      let at series =
        match List.assoc_opt (string_of_int epoch) series with
        | Some v -> v
        | None -> Alcotest.failf "epoch %d not sampled" epoch
      in
      let goal = at goal and actual = at mm in
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d: %.0f near %.0f" epoch actual goal)
        true
        (Float.abs (actual -. goal) /. goal < 0.35))
    [ 80; 180; 280; 380; 480 ]

(* ---- Figure 2 recall harness ---- *)

let test_fig2_more_resources_higher_recall () =
  let metrics, _ = Fixtures.printed (fun () -> Fig02.run ~quick:true) in
  let low = Fixtures.metric metrics "mean_recall_256"
  and high = Fixtures.metric metrics "mean_recall_2048" in
  Alcotest.(check bool)
    (Printf.sprintf "recall grows with resources (%.2f -> %.2f)" low high)
    true (high > low);
  Alcotest.(check bool) "high budget gets good recall" true (high > 0.75)

(* ---- Figure registry ---- *)

let test_registry_complete () =
  let ids = List.map fst Figures.all in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "fig2"; "fig4"; "fig6"; "fig8"; "fig10"; "fig12"; "fig14"; "fig15"; "fig16"; "fig17" ];
  Alcotest.(check bool) "unknown id is an error" true (Result.is_error (Figures.run ~quick:true "nope"))

let () =
  Alcotest.run "dream.sim"
    [
      ( "experiment",
        [
          Alcotest.test_case "runs end to end" `Slow test_experiment_runs;
          Alcotest.test_case "deterministic" `Slow test_experiment_deterministic;
          Alcotest.test_case "baselines run" `Slow test_experiment_baselines_run;
          Alcotest.test_case "DREAM beats Equal under overload" `Slow
            test_dream_beats_equal_under_overload;
          Alcotest.test_case "incremental updates dominate" `Slow test_incremental_updates_dominate;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "MM converges best" `Quick test_fig4_mm_converges_best;
          Alcotest.test_case "MM tracks the goal" `Quick test_fig4_tracks_goal;
        ] );
      ( "fig2",
        [ Alcotest.test_case "resources raise recall" `Slow test_fig2_more_resources_higher_recall ] );
      ("figures", [ Alcotest.test_case "registry" `Quick test_registry_complete ]);
    ]
