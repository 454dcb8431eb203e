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

let prototype =
  {
    default with
    control_delay = Some Dream_switch.Delay_model.default;
    score_satisfaction_with = `Estimated_accuracy;
  }

let hardware ~installs_per_epoch = { prototype with install_budget = Some installs_per_epoch }
