(* Tests for dream.workload: scenario plumbing, the arrival schedule and
   the scenario driver. *)

module Prefix = Prefix_ops
module Task_spec = Dream_tasks.Task_spec
module Scenario = Dream_workload.Scenario
module Arrival = Dream_workload.Arrival
module Drive = Dream_workload.Drive
module Controller = Dream_core.Controller
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Fault_model = Dream_fault.Fault_model
module Journal = Dream_recovery.Journal

let test_default_scenario_sane () =
  let s = Scenario.default in
  Alcotest.(check bool) "concurrency positive" true (Scenario.concurrency s > 1.0);
  Alcotest.(check bool) "window within run" true (s.Scenario.arrival_window < s.Scenario.total_epochs)

let test_with_kind () =
  let s = Scenario.with_kind Scenario.default Task_spec.Change_detection in
  Alcotest.(check bool) "single kind" true (s.Scenario.kinds = [ Task_spec.Change_detection ])

let test_schedule_count_and_order () =
  let subs = Arrival.schedule Scenario.default in
  Alcotest.(check int) "one submission per task" Scenario.default.Scenario.num_tasks
    (List.length subs);
  let rec sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.Arrival.arrival <= b.Arrival.arrival && sorted rest
  in
  Alcotest.(check bool) "sorted by arrival" true (sorted subs);
  List.iter
    (fun s ->
      Alcotest.(check bool) "arrival in window" true
        (s.Arrival.arrival >= 0 && s.Arrival.arrival < Scenario.default.Scenario.arrival_window);
      Alcotest.(check bool) "duration floored" true
        (s.Arrival.duration >= Scenario.default.Scenario.min_duration))
    subs

let test_schedule_distinct_filters () =
  let subs = Arrival.schedule Scenario.default in
  let filters = List.map (fun s -> s.Arrival.spec.Task_spec.filter) subs in
  Alcotest.(check int) "all distinct" (List.length filters)
    (List.length (List.sort_uniq Prefix.compare filters))

let test_schedule_kind_mix () =
  let subs = Arrival.schedule Scenario.default in
  List.iter
    (fun kind ->
      let n =
        List.length (List.filter (fun s -> s.Arrival.spec.Task_spec.kind = kind) subs)
      in
      Alcotest.(check bool)
        (Printf.sprintf "kind %s present" (Task_spec.kind_to_string kind))
        true (n > 0))
    Task_spec.all_kinds

let test_schedule_deterministic () =
  let a = Arrival.schedule Scenario.default and b = Arrival.schedule Scenario.default in
  List.iter2
    (fun x y ->
      Alcotest.(check int) "same arrival" x.Arrival.arrival y.Arrival.arrival;
      Alcotest.(check int) "same duration" x.Arrival.duration y.Arrival.duration;
      Alcotest.(check bool) "same filter" true
        (Prefix.equal x.Arrival.spec.Task_spec.filter y.Arrival.spec.Task_spec.filter))
    a b

let test_schedule_seed_changes () =
  let a = Arrival.schedule Scenario.default in
  let b = Arrival.schedule { Scenario.default with Scenario.seed = 12345 } in
  let same =
    List.for_all2
      (fun x y -> Prefix.equal x.Arrival.spec.Task_spec.filter y.Arrival.spec.Task_spec.filter)
      a b
  in
  Alcotest.(check bool) "different seeds give different filters" false same

let test_schedule_respects_spec_fields () =
  let scenario =
    { Scenario.default with Scenario.threshold = 16.0; accuracy_bound = 0.7; leaf_length = 28 }
  in
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9)) "threshold" 16.0 s.Arrival.spec.Task_spec.threshold;
      Alcotest.(check (float 1e-9)) "bound" 0.7 s.Arrival.spec.Task_spec.accuracy_bound;
      Alcotest.(check int) "leaf length" 28 s.Arrival.spec.Task_spec.leaf_length)
    (Arrival.schedule scenario)

(* ---- Drive ---- *)

let small =
  {
    Scenario.default with
    Scenario.num_switches = 4;
    switches_per_task = 4;
    capacity = 256;
    num_tasks = 10;
    arrival_window = 20;
    mean_duration = 8;
    min_duration = 3;
    total_epochs = 30;
  }

let strategy = Dream_alloc.Allocator.Dream Dream_alloc.Dream_allocator.default_config

let kind_arrivals records =
  List.sort compare
    (List.map
       (fun (r : Metrics.record) -> (r.Metrics.arrived_at, Task_spec.kind_to_string r.Metrics.kind))
       records)

(* Every scheduled task arriving before the horizon is submitted exactly
   once, at its arrival epoch; later ones never are. *)
let test_drive_submits_schedule () =
  let scenario = { small with Scenario.arrival_window = 40 } in
  let drive = Drive.create ~config:Config.default ~strategy scenario in
  for _ = 1 to scenario.Scenario.total_epochs do
    Drive.step drive
  done;
  let records = Controller.records (Drive.finish drive) in
  let expected =
    List.filter_map
      (fun (s : Arrival.submission) ->
        if s.Arrival.arrival < scenario.Scenario.total_epochs then
          Some (s.Arrival.arrival, Task_spec.kind_to_string s.Arrival.spec.Task_spec.kind)
        else None)
      (Arrival.schedule scenario)
  in
  Alcotest.(check bool) "some tasks arrive after the horizon" true
    (List.length expected < scenario.Scenario.num_tasks);
  Alcotest.(check (list (pair int string))) "one record per arrival, at its epoch"
    (List.sort compare expected) (kind_arrivals records);
  Alcotest.(check int) "no storm tasks" 0 (Drive.storm_submissions drive)

(* With a storm every epoch, each epoch submits min(requested, pool left)
   storm tasks in pool order, and a dry pool is not an error. *)
let test_drive_storm_feed () =
  (* All regular tasks arrive at epoch 0, so later arrivals are storms. *)
  let scenario = { small with Scenario.arrival_window = 1; total_epochs = 40 } in
  let storms = { Fault_model.zero with Fault_model.seed = 5; storm_rate = 1.0 } in
  let drive =
    Drive.create ~config:{ Config.default with Config.faults = Some storms } ~strategy scenario
  in
  (* The pool as the driver documents it. *)
  let pool =
    Arrival.schedule
      {
        scenario with
        Scenario.seed = scenario.Scenario.seed + 7919;
        num_tasks = max 8 (scenario.Scenario.num_tasks / 2);
        mean_duration = max 5 (scenario.Scenario.mean_duration / 4);
      }
  in
  let pool_size = List.length pool in
  for _ = 1 to scenario.Scenario.total_epochs do
    let requested = Controller.storm_tasks_pending (Drive.controller drive) in
    let before = Drive.storm_submissions drive in
    Drive.step drive;
    Alcotest.(check int) "min(requested, pool left)"
      (min requested (pool_size - before))
      (Drive.storm_submissions drive - before)
  done;
  Alcotest.(check int) "pool drained" pool_size (Drive.storm_submissions drive);
  let storm_records =
    List.filter
      (fun (r : Metrics.record) -> r.Metrics.arrived_at > 0)
      (Controller.records (Drive.finish drive))
    |> List.sort (fun (a : Metrics.record) b -> Int.compare a.Metrics.task_id b.Metrics.task_id)
  in
  Alcotest.(check int) "one record per pool task" pool_size (List.length storm_records);
  Alcotest.(check bool) "some storm task completes" true
    (List.exists (fun (r : Metrics.record) -> r.Metrics.outcome = Metrics.Completed) storm_records);
  List.iter2
    (fun (s : Arrival.submission) (r : Metrics.record) ->
      Alcotest.(check string) "pool order (kind)"
        (Task_spec.kind_to_string s.Arrival.spec.Task_spec.kind)
        (Task_spec.kind_to_string r.Metrics.kind);
      if r.Metrics.outcome = Metrics.Completed then
        Alcotest.(check int) "pool order (duration)" s.Arrival.duration r.Metrics.active_epochs)
    pool storm_records

let test_drive_fail_over_needs_state () =
  let no_journal = Drive.create ~config:Config.default ~strategy small in
  Drive.checkpoint no_journal;
  Alcotest.(check bool) "no journal" true (Result.is_error (Drive.fail_over no_journal));
  let no_checkpoint =
    Drive.create ~journal:(Journal.memory ()) ~config:Config.default ~strategy small
  in
  let before = Drive.controller no_checkpoint in
  Alcotest.(check bool) "no checkpoint" true (Result.is_error (Drive.fail_over no_checkpoint));
  Alcotest.(check bool) "controller kept" true (Drive.controller no_checkpoint == before)

let test_drive_fail_over_resumes () =
  let sink = Journal.memory () in
  let drive = Drive.create ~journal:sink ~config:Config.default ~strategy small in
  Drive.checkpoint drive;
  for _ = 1 to 12 do
    Drive.step drive
  done;
  let before = Drive.controller drive in
  (match Drive.fail_over drive with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let after = Drive.controller drive in
  Alcotest.(check bool) "controller replaced" false (after == before);
  Alcotest.(check int) "same epoch" (Controller.epoch before) (Controller.epoch after);
  Alcotest.(check int) "same active tasks" (Controller.active_tasks before)
    (Controller.active_tasks after);
  (* Fail-over ends with a fresh checkpoint, which empties the sink; the
     successor's next steps append to it again. *)
  Alcotest.(check int) "journal emptied by the checkpoint" 0 (Journal.length sink);
  for _ = 1 to 4 do
    Drive.step drive
  done;
  Alcotest.(check bool) "journal re-attached" true (Journal.length sink > 0)

let () =
  Alcotest.run "dream.workload"
    [
      ( "scenario",
        [
          Alcotest.test_case "default sane" `Quick test_default_scenario_sane;
          Alcotest.test_case "with_kind" `Quick test_with_kind;
        ] );
      ( "arrival",
        [
          Alcotest.test_case "count and order" `Quick test_schedule_count_and_order;
          Alcotest.test_case "distinct filters" `Quick test_schedule_distinct_filters;
          Alcotest.test_case "kind mix" `Quick test_schedule_kind_mix;
          Alcotest.test_case "deterministic" `Quick test_schedule_deterministic;
          Alcotest.test_case "seed changes schedule" `Quick test_schedule_seed_changes;
          Alcotest.test_case "respects spec fields" `Quick test_schedule_respects_spec_fields;
        ] );
      ( "drive",
        [
          Alcotest.test_case "submits the schedule" `Quick test_drive_submits_schedule;
          Alcotest.test_case "storm feed" `Quick test_drive_storm_feed;
          Alcotest.test_case "fail-over needs journal and checkpoint" `Quick
            test_drive_fail_over_needs_state;
          Alcotest.test_case "fail-over resumes" `Quick test_drive_fail_over_resumes;
        ] );
    ]
