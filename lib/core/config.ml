type degraded = {
  breaker : Dream_switch.Breaker.config;
  deadline_fraction : float;
  shed_max_staleness : int;
}

let default_degraded =
  { breaker = Dream_switch.Breaker.default_config; deadline_fraction = 0.8; shed_max_staleness = 4 }

type t = {
  allocation_interval : int;
  drop_threshold : int;
  accuracy_history : float;
  epoch_ms : float;
  control_delay : Dream_switch.Delay_model.costs option;
  score_satisfaction_with : [ `Real_accuracy | `Estimated_accuracy ];
  accuracy_mode : Dream_tasks.Task.accuracy_mode;
  install_budget : int option;
  faults : Dream_fault.Fault_model.spec option;
  degraded : degraded option;
  check_invariants : bool;
  telemetry : Dream_obs.Telemetry.t option;
}

let default =
  {
    allocation_interval = 2;
    drop_threshold = 6;
    accuracy_history = 0.4;
    epoch_ms = 1000.0;
    control_delay = None;
    score_satisfaction_with = `Real_accuracy;
    accuracy_mode = Dream_tasks.Task.Overall;
    install_budget = None;
    faults = None;
    degraded = None;
    check_invariants = false;
    telemetry = None;
  }

(* Same positive-form checks as Fault_model.validate: NaN fails every
   comparison, so [not (x > 0.0 && x <= 1.0)] rejects it where
   [x <= 0.0 || x > 1.0] would wave it through. *)
let validate t =
  if t.allocation_interval < 1 then
    invalid_arg
      (Printf.sprintf "Config: allocation_interval must be >= 1, got %d" t.allocation_interval);
  match t.degraded with
  | Some d ->
    if not (d.deadline_fraction > 0.0 && d.deadline_fraction <= 1.0) then
      invalid_arg
        (Printf.sprintf "Config: degraded.deadline_fraction must be in (0, 1], got %g"
           d.deadline_fraction);
    if d.shed_max_staleness < 1 then
      invalid_arg
        (Printf.sprintf "Config: degraded.shed_max_staleness must be >= 1, got %d"
           d.shed_max_staleness)
  | None -> ()

let prototype =
  {
    default with
    control_delay = Some Dream_switch.Delay_model.default;
    score_satisfaction_with = `Estimated_accuracy;
  }

let hardware ~installs_per_epoch = { prototype with install_budget = Some installs_per_epoch }
