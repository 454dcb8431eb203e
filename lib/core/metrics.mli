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

(** The robustness tallies, declared once: a record polymorphic in its
    cell type, so the values a run reports ({!robustness}), the registry
    counters that keep them ({!Tallies.t}) and their names ({!names}) are
    the same nineteen fields in the same order. *)
type 'a tallies = {
  crashes : 'a;  (** switch crash events *)
  recoveries : 'a;  (** switches that came back up *)
  switch_down_epochs : 'a;  (** sum over epochs of down-switch count *)
  fetch_timeouts : 'a;  (** counter-fetch batches that timed out *)
  fetch_retries : 'a;  (** retry attempts issued after timeouts *)
  fetch_failures : 'a;  (** fetches abandoned after the retry budget ran out *)
  stale_epochs : 'a;  (** task-switch epochs served from the previous epoch's counters *)
  counters_lost : 'a;  (** individual counters dropped from otherwise-successful batches *)
  install_failures : 'a;  (** rule installs that did not land *)
  recovery_reinstalls : 'a;  (** rules reinstalled on freshly recovered switches *)
  controller_crashes : 'a;  (** controller fail-overs survived *)
  reconcile_removed : 'a;  (** stray rules deleted by the post-crash switch audit *)
  reconcile_installed : 'a;  (** missing rules reinstalled by the post-crash switch audit *)
  partitions : 'a;  (** control-channel partition windows that opened *)
  partition_epochs : 'a;  (** sum over epochs of unreachable-switch count *)
  breaker_opens : 'a;  (** circuit-breaker trips (including probe-failure re-opens) *)
  breaker_probes : 'a;  (** half-open probes issued by open breakers *)
  breaker_skips : 'a;  (** fetches skipped outright because a breaker was open *)
  sheds : 'a;  (** task fetches shed by the epoch-deadline scheduler *)
}

val names : string tallies
(** Each field's own name: the registry counter's, the checkpoint key's. *)

val map : ('a -> 'b) -> 'a tallies -> 'b tallies
(** Applies [f] to the fields one at a time, in declaration order, so a
    reader may consume its input as it goes. *)

val to_list : 'a tallies -> 'a list
(** The fields in declaration order. *)

type robustness = int tallies

val no_faults : robustness
(** All counters zero — what a run without fault injection reports. *)

(** Registry-backed robustness tallies.  Each counter is a cell of a
    metrics registry, so the exporters and {!read} see the same values. *)
module Tallies : sig
  type t = Dream_obs.Registry.Counter.t tallies

  val of_registry : Dream_obs.Registry.t -> t
  (** Find or create the nineteen counters, named after their fields. *)

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
