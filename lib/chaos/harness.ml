module Scenario = Dream_workload.Scenario
module Drive = Dream_workload.Drive
module Config = Dream_core.Config
module Controller = Dream_core.Controller
module Metrics = Dream_core.Metrics
module Fault_model = Dream_fault.Fault_model
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Journal = Dream_recovery.Journal
module Task_spec = Dream_tasks.Task_spec

(* The fixed chaos topology: small enough that a 500-schedule bank runs in
   seconds, rich enough that partitions (4 groups of 2 switches), storms
   and crashes all have something to break. *)
let num_switches = 8

let default_horizon = 48

let default_events = 12

let strategy = Allocator.Dream Dream_allocator.default_config

let scenario ~seed ~horizon =
  {
    Scenario.default with
    Scenario.seed;
    num_tasks = 10;
    arrival_window = 16;
    mean_duration = 14;
    min_duration = 6;
    total_epochs = horizon;
  }

let base_config ~seed =
  {
    Config.default with
    Config.faults = Some { Fault_model.zero with Fault_model.seed = seed };
    degraded = Some Config.default_degraded;
  }

let outcome_tag = function
  | Metrics.Completed -> "completed"
  | Metrics.Dropped -> "dropped"
  | Metrics.Rejected -> "rejected"

(* Canonical run fingerprint for the differential oracle: every record,
   the summary, the robustness counters and the rule churn, rendered with
   full float precision so byte equality means behavioural equality. *)
let digest_of controller =
  let b = Buffer.create 1024 in
  let s = Controller.summary controller in
  Printf.bprintf b "summary %d %d %d %d %d %.17g %.17g %.17g %.17g\n" s.Metrics.submitted
    s.Metrics.admitted s.Metrics.rejected s.Metrics.dropped s.Metrics.completed
    s.Metrics.mean_satisfaction s.Metrics.p5_satisfaction s.Metrics.rejection_pct
    s.Metrics.drop_pct;
  Printf.bprintf b "robustness %s\n"
    (String.concat " " (List.map string_of_int (Metrics.to_list s.Metrics.robustness)));
  List.iter
    (fun (rec_ : Metrics.record) ->
      Printf.bprintf b "record %d %s %s %d %d %d %.17g %.17g\n" rec_.Metrics.task_id
        (Task_spec.kind_to_string rec_.Metrics.kind)
        (outcome_tag rec_.Metrics.outcome)
        rec_.Metrics.arrived_at rec_.Metrics.ended_at rec_.Metrics.active_epochs
        rec_.Metrics.satisfaction rec_.Metrics.mean_accuracy)
    (Controller.records controller);
  Printf.bprintf b "rules %d %d\n"
    (Controller.total_rules_installed controller)
    (Controller.total_rules_fetched controller);
  Buffer.contents b

(* The seed run the differential oracle compares against: the same
   scenario and config driven with none of the chaos machinery — no
   journal, no checkpoints, no oracles (and, with no storms scheduled,
   nothing for the storm feed to do).  An empty schedule through {!run}
   must produce a byte-identical digest. *)
let reference_digest ~seed ~horizon =
  let drive = Drive.create ~config:(base_config ~seed) ~strategy (scenario ~seed ~horizon) in
  for _ = 1 to horizon do
    Drive.step drive
  done;
  digest_of (Drive.finish drive)

type result = {
  schedule : Schedule.t;
  canary : bool;
  violations : Oracle.violation list;
  recoveries : int;
  checkpoints : int;
  torn_tail_checks : int;
  storm_submissions : int;
  canary_fired : bool;
  summary : Metrics.summary;
  digest : string;
}

let failed r = r.violations <> []

(* The planted bug the harness must be able to find: with [canary] set, the
   first time an admission storm lands while a partition window is open,
   one allocation is silently corrupted past switch capacity.  The
   invariant oracle must flag it, and the shrinker must reduce whatever
   schedule exposed it to its essence — one partition plus one storm. *)
let maybe_fire_canary ~canary ~fired ~capacity controller =
  if not canary || !fired then ()
  else begin
    match Controller.faults controller with
    | Some fm
      when Controller.storm_tasks_pending controller > 0 && Fault_model.partitioned_count fm > 0
      -> begin
        match Controller.active_task_ids controller with
        | task_id :: _ ->
          Allocator.force_allocation (Controller.allocator controller) ~task_id ~switch:0
            ~alloc:(2 * capacity);
          fired := true
        | [] -> ()
      end
    | _ -> ()
  end

let noise_active (sched : Schedule.t) ~model_epoch =
  List.exists
    (fun e ->
      match e with
      | Schedule.Fault { at; fault = Noise { span; timeout_rate; loss_rate; _ } } ->
        at <= model_epoch && model_epoch < at + span && (timeout_rate > 0.0 || loss_rate > 0.0)
      | _ -> false)
    sched.Schedule.events

let run ?(canary = false) (sched : Schedule.t) =
  let scenario = scenario ~seed:sched.Schedule.seed ~horizon:sched.Schedule.horizon in
  let sink = Journal.memory () in
  let drive =
    Drive.create ~journal:sink ~config:(base_config ~seed:sched.Schedule.seed) ~strategy scenario
  in
  (match Controller.faults (Drive.controller drive) with
  | Some fm -> Schedule.stage sched fm
  | None -> ());
  Drive.checkpoint drive;
  let violations = ref [] in
  let recoveries = ref 0 in
  let checkpoints = ref 0 in
  let torn_checks = ref 0 in
  let fired = ref false in
  let prev_breakers = ref (Controller.breaker_states (Drive.controller drive)) in
  let prev_stale = Hashtbl.create 16 in
  let cap = Dream_core.Fetch.shed_max_staleness in
  let add vs = violations := vs @ !violations in
  for epoch = 0 to scenario.Scenario.total_epochs - 1 do
    let model_epoch = epoch + 1 in
    Drive.step drive;
    (* Controller fail-over, exactly as the crash-recovery experiment. *)
    if Controller.controller_crash_pending (Drive.controller drive) then begin
      incr recoveries;
      (match Drive.fail_over drive with
      | Error msg -> add [ { Oracle.epoch; code = "recover-failed"; detail = msg } ]
      | Ok () -> ());
      (* Restoring a checkpoint legitimately rewinds breakers to older
         states and staleness to replayed levels; neither oracle may read
         the rewind as organic movement. *)
      prev_breakers := Controller.breaker_states (Drive.controller drive);
      Oracle.seed_staleness ~controller:(Drive.controller drive) ~prev:prev_stale
    end;
    let controller = Drive.controller drive in
    maybe_fire_canary ~canary ~fired ~capacity:scenario.Scenario.capacity controller;
    (* Harness-level probes scheduled for this model epoch. *)
    List.iter
      (fun e ->
        match e with
        | Schedule.Torn_tail { at; drop } when at = model_epoch ->
          incr torn_checks;
          add (Oracle.torn_tail ~epoch ~drop (Journal.entries sink))
        | Schedule.Checkpoint { at } when at = model_epoch ->
          incr checkpoints;
          add (Oracle.checkpoint_roundtrip ~epoch controller);
          Drive.checkpoint drive
        | _ -> ())
      sched.Schedule.events;
    (* Standing oracles, every epoch. *)
    add (Oracle.invariants ~epoch controller);
    let now = Controller.breaker_states controller in
    add (Oracle.breaker_transitions ~epoch ~prev:!prev_breakers ~now);
    prev_breakers := now;
    add
      (Oracle.staleness ~epoch ~cap
         ~noise_active:(noise_active sched ~model_epoch)
         ~controller ~prev:prev_stale)
  done;
  (* Every scripted event must have been consumed (noise windows may
     legitimately outlive the horizon). *)
  (match Controller.faults (Drive.controller drive) with
  | Some fm ->
    let expected =
      List.length
        (List.filter
           (fun e ->
             match e with
             | Schedule.Fault { at; fault = Noise { span; _ } } ->
               at + span > sched.Schedule.horizon
             | _ -> false)
           sched.Schedule.events)
    in
    let pending_inj = Fault_model.pending_injections fm in
    if pending_inj <> expected then
      add
        [
          {
            Oracle.epoch = scenario.Scenario.total_epochs;
            code = "injections-unconsumed";
            detail =
              Printf.sprintf "%d scripted events still pending at the horizon (expected %d)"
                pending_inj expected;
          };
        ]
  | None -> ());
  let controller = Drive.finish drive in
  {
    schedule = sched;
    canary;
    violations = List.rev !violations;
    recoveries = !recoveries;
    checkpoints = !checkpoints;
    torn_tail_checks = !torn_checks;
    storm_submissions = Drive.storm_submissions drive;
    canary_fired = !fired;
    summary = Controller.summary controller;
    digest = digest_of controller;
  }
