(** Evaluation metrics (Section 6.1): per-task satisfaction — the fraction
    of its active lifetime a task's accuracy met its bound — summarised by
    mean and 5th percentile, plus rejection and drop ratios over all
    submitted tasks. *)

type outcome = Completed | Dropped | Rejected

type record = {
  task_id : int;
  kind : Dream_tasks.Task_spec.kind;
  outcome : outcome;
  arrived_at : int;
  ended_at : int;  (** epoch the task finished, was dropped, or was rejected *)
  active_epochs : int;
  satisfaction : float;  (** satisfied epochs / active epochs; 0 if never active *)
  mean_accuracy : float;  (** average scored accuracy while active *)
}

val rejected : task_id:int -> kind:Dream_tasks.Task_spec.kind -> epoch:int -> record
(** The record of a task refused at [epoch]: never active, satisfaction and
    accuracy zero. *)

type robustness = {
  crashes : int;  (** switch crash events *)
  recoveries : int;  (** switches that came back up *)
  switch_down_epochs : int;  (** sum over epochs of down-switch count *)
  fetch_timeouts : int;  (** counter-fetch batches that timed out *)
  fetch_retries : int;  (** retry attempts issued after timeouts *)
  fetch_failures : int;  (** fetches abandoned after the retry budget ran out *)
  stale_epochs : int;  (** task-switch epochs served from the previous epoch's counters *)
  counters_lost : int;  (** individual counters dropped from otherwise-successful batches *)
  install_failures : int;  (** rule installs that did not land *)
  recovery_reinstalls : int;  (** rules reinstalled on freshly recovered switches *)
  controller_crashes : int;  (** controller fail-overs survived *)
  reconcile_removed : int;  (** stray rules deleted by the post-crash switch audit *)
  reconcile_installed : int;  (** missing rules reinstalled by the post-crash switch audit *)
  invariant_violations : int;  (** violations flagged by the runtime invariant checker *)
  partitions : int;  (** control-channel partition windows that opened *)
  partition_epochs : int;  (** sum over epochs of unreachable-switch count *)
  breaker_opens : int;  (** circuit-breaker trips (including probe-failure re-opens) *)
  breaker_probes : int;  (** half-open probes issued by open breakers *)
  breaker_skips : int;  (** fetches skipped outright because a breaker was open *)
  sheds : int;  (** task fetches shed by the epoch-deadline scheduler *)
}

val no_faults : robustness
(** All counters zero — what a run without fault injection reports. *)

(** Registry-backed robustness tallies.  Each counter is a cell of a
    metrics registry, so the exporters and {!read} see the same values. *)
module Tallies : sig
  type counter := Dream_obs.Registry.Counter.t

  type t = {
    crashes : counter;
    recoveries : counter;
    switch_down_epochs : counter;
    fetch_timeouts : counter;
    fetch_retries : counter;
    fetch_failures : counter;
    stale_epochs : counter;
    counters_lost : counter;
    install_failures : counter;
    recovery_reinstalls : counter;
    controller_crashes : counter;
    reconcile_removed : counter;
    reconcile_installed : counter;
    invariant_violations : counter;
    partitions : counter;
    partition_epochs : counter;
    breaker_opens : counter;
    breaker_probes : counter;
    breaker_skips : counter;
    sheds : counter;
  }

  val of_registry : Dream_obs.Registry.t -> t
  (** Find or create the twenty counters, named after their fields. *)

  val set : t -> robustness -> unit
  (** Overwrite every counter — checkpoint restore only. *)

  val read : t -> robustness
end

type summary = {
  submitted : int;
  admitted : int;
  rejected : int;
  dropped : int;
  completed : int;
  mean_satisfaction : float;  (** over admitted tasks, in \[0, 100\] *)
  p5_satisfaction : float;
  rejection_pct : float;  (** rejected / submitted * 100 *)
  drop_pct : float;  (** dropped / submitted * 100 *)
  robustness : robustness;  (** {!no_faults} unless fault injection ran *)
}

val summarize : ?robustness:robustness -> record list -> summary

val pp_summary : Format.formatter -> summary -> unit

val pp_robustness : Format.formatter -> robustness -> unit

val mean_accuracy : record list -> float
(** Mean scored accuracy over admitted tasks, in \[0, 1\]; 0 when none. *)

type stat = { mean : float; stddev : float }
(** A sample's mean and population standard deviation, for sweeps that
    aggregate one value over several seeds. *)

val stat : float list -> stat
