(** Experiment scenario description (Section 6.1).

    A scenario fixes the network (switches, capacity), the task population
    (count, kinds, thresholds, bounds, spatial spread), the arrival process
    (Poisson over a window, exponential durations) and the traffic profile.
    The paper's prototype setting is 256 tasks over 8 switches arriving in
    20 minutes with 5-minute average durations; {!default} is a
    time-compressed version of that with the same load shape (concurrency
    ~ a third of the task count), sized so a full capacity sweep runs in
    seconds. *)

type t = {
  seed : int;
  num_switches : int;
  capacity : int;  (** TCAM entries per switch *)
  switches_per_task : int;  (** power of two; the spatial spread of a task *)
  num_tasks : int;
  arrival_window : int;  (** epochs during which tasks arrive *)
  mean_duration : int;  (** epochs; durations are exponential, floored *)
  min_duration : int;
  total_epochs : int;  (** simulation length *)
  kinds : Dream_tasks.Task_spec.kind list;  (** tasks cycle through these *)
  filter_length : int;  (** task flow filters, e.g. /12 *)
  leaf_length : int;  (** drill-down floor *)
  threshold : float;
  accuracy_bound : float;
  profile_of : Dream_util.Rng.t -> float -> Dream_traffic.Profile.t;
      (** traffic profile per task, given a task-specific RNG and the
          threshold.  The default draws a size factor per task (0.5x..3x
          source counts), reproducing the paper's heterogeneous per-task
          traffic — the heterogeneity that makes Equal's tail collapse. *)
}

val fixed_traffic_profile : calibration:float -> Dream_util.Rng.t -> float -> Dream_traffic.Profile.t
(** A [profile_of] that ignores the scenario threshold and calibrates
    traffic to [calibration] instead — for threshold sweeps, where traffic
    must stay fixed while the task threshold moves (a lower threshold then
    really does mean more reportable items, as in Fig 12b/13b). *)

val default : t
(** 8 switches, 88 tasks arriving over 280 epochs with mean duration 140
    (expected concurrency ~44), 560 epochs total, combined HH+HHH+CD
    workload, /12 filters drilling to /24, 8 Mb threshold, 80% bound,
    heterogeneous per-task traffic (0.5x-6x source populations). *)

val with_kind : t -> Dream_tasks.Task_spec.kind -> t
(** Restrict the workload to a single task type. *)

val concurrency : t -> float
(** Expected number of simultaneously active tasks. *)

val pp : Format.formatter -> t -> unit
