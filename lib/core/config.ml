type degraded = { deadline_fraction : float }

let default_degraded = { deadline_fraction = 0.8 }

type t = {
  allocation_interval : int;
  drop_threshold : int;
  prototype : bool;
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
    prototype = false;
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
  if t.drop_threshold < 1 then
    invalid_arg (Printf.sprintf "Config: drop_threshold must be >= 1, got %d" t.drop_threshold);
  (match t.install_budget with
  | Some b when b < 1 ->
    invalid_arg (Printf.sprintf "Config: install_budget must be >= 1, got %d" b)
  | Some _ | None -> ());
  match t.degraded with
  | Some d when not (d.deadline_fraction > 0.0 && d.deadline_fraction <= 1.0) ->
    invalid_arg
      (Printf.sprintf "Config: degraded.deadline_fraction must be in (0, 1], got %g"
         d.deadline_fraction)
  | Some _ | None -> ()

let prototype = { default with prototype = true }

let hardware ~installs_per_epoch = { prototype with install_budget = Some installs_per_epoch }
