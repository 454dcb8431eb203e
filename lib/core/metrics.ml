module Stats = Dream_util.Stats

type outcome = Completed | Dropped | Rejected

type record = {
  task_id : int;
  kind : Dream_tasks.Task_spec.kind;
  outcome : outcome;
  arrived_at : int;
  ended_at : int;
  active_epochs : int;
  satisfaction : float;
  mean_accuracy : float;
}

let rejected ~task_id ~kind ~epoch =
  {
    task_id;
    kind;
    outcome = Rejected;
    arrived_at = epoch;
    ended_at = epoch;
    active_epochs = 0;
    satisfaction = 0.0;
    mean_accuracy = 0.0;
  }

type 'a tallies = {
  crashes : 'a;
  recoveries : 'a;
  switch_down_epochs : 'a;
  fetch_timeouts : 'a;
  fetch_retries : 'a;
  fetch_failures : 'a;
  stale_epochs : 'a;
  counters_lost : 'a;
  install_failures : 'a;
  recovery_reinstalls : 'a;
  controller_crashes : 'a;
  reconcile_removed : 'a;
  reconcile_installed : 'a;
  partitions : 'a;
  partition_epochs : 'a;
  breaker_opens : 'a;
  breaker_probes : 'a;
  breaker_skips : 'a;
  sheds : 'a;
}

let names =
  {
    crashes = "crashes";
    recoveries = "recoveries";
    switch_down_epochs = "switch_down_epochs";
    fetch_timeouts = "fetch_timeouts";
    fetch_retries = "fetch_retries";
    fetch_failures = "fetch_failures";
    stale_epochs = "stale_epochs";
    counters_lost = "counters_lost";
    install_failures = "install_failures";
    recovery_reinstalls = "recovery_reinstalls";
    controller_crashes = "controller_crashes";
    reconcile_removed = "reconcile_removed";
    reconcile_installed = "reconcile_installed";
    partitions = "partitions";
    partition_epochs = "partition_epochs";
    breaker_opens = "breaker_opens";
    breaker_probes = "breaker_probes";
    breaker_skips = "breaker_skips";
    sheds = "sheds";
  }

(* A let chain, not a record literal: OCaml leaves the evaluation order
   of a literal's fields unspecified, and checkpoint parse reads its
   lines through [f] in declaration order. *)
let map f t =
  let crashes = f t.crashes in
  let recoveries = f t.recoveries in
  let switch_down_epochs = f t.switch_down_epochs in
  let fetch_timeouts = f t.fetch_timeouts in
  let fetch_retries = f t.fetch_retries in
  let fetch_failures = f t.fetch_failures in
  let stale_epochs = f t.stale_epochs in
  let counters_lost = f t.counters_lost in
  let install_failures = f t.install_failures in
  let recovery_reinstalls = f t.recovery_reinstalls in
  let controller_crashes = f t.controller_crashes in
  let reconcile_removed = f t.reconcile_removed in
  let reconcile_installed = f t.reconcile_installed in
  let partitions = f t.partitions in
  let partition_epochs = f t.partition_epochs in
  let breaker_opens = f t.breaker_opens in
  let breaker_probes = f t.breaker_probes in
  let breaker_skips = f t.breaker_skips in
  let sheds = f t.sheds in
  { crashes; recoveries; switch_down_epochs; fetch_timeouts; fetch_retries; fetch_failures;
    stale_epochs; counters_lost; install_failures; recovery_reinstalls; controller_crashes;
    reconcile_removed; reconcile_installed; partitions; partition_epochs;
    breaker_opens; breaker_probes; breaker_skips; sheds }

let to_list t =
  [ t.crashes; t.recoveries; t.switch_down_epochs; t.fetch_timeouts; t.fetch_retries;
    t.fetch_failures; t.stale_epochs; t.counters_lost; t.install_failures;
    t.recovery_reinstalls; t.controller_crashes; t.reconcile_removed; t.reconcile_installed;
    t.partitions; t.partition_epochs; t.breaker_opens; t.breaker_probes;
    t.breaker_skips; t.sheds ]

type robustness = int tallies

(* Registry-backed robustness tallies: the exporters and {!robustness}
   read the same cells, so there is exactly one copy of each tally. *)
module Tallies = struct
  module Counter = Dream_obs.Registry.Counter

  type t = Counter.t tallies

  let of_registry reg = map (fun name -> Dream_obs.Registry.counter reg name) names
  let set t (v : robustness) = List.iter2 Counter.set (to_list t) (to_list v)
  let read t : robustness = map Counter.value t
end

(* All counters zero: what a fresh set of tallies reads. *)
let no_faults = map (fun _ -> 0) names

type summary = {
  submitted : int;
  admitted : int;
  rejected : int;
  dropped : int;
  completed : int;
  mean_satisfaction : float;
  p5_satisfaction : float;
  rejection_pct : float;
  drop_pct : float;
  robustness : robustness;
}

let admitted_values f records =
  List.filter_map
    (fun r -> match r.outcome with Rejected -> None | Completed | Dropped -> Some (f r))
    records

let satisfaction_values records = admitted_values (fun r -> r.satisfaction *. 100.0) records

let mean_accuracy records = Stats.mean (admitted_values (fun r -> r.mean_accuracy) records)

type stat = { mean : float; stddev : float }

let stat xs = { mean = Stats.mean xs; stddev = Stats.stddev xs }

let summarize ?(robustness = no_faults) records =
  let submitted = List.length records in
  let count p = List.length (List.filter p records) in
  let rejected = count (fun r -> r.outcome = Rejected) in
  let dropped = count (fun r -> r.outcome = Dropped) in
  let completed = count (fun r -> r.outcome = Completed) in
  let sats = satisfaction_values records in
  let pct n = if submitted = 0 then 0.0 else 100.0 *. float_of_int n /. float_of_int submitted in
  {
    submitted;
    admitted = submitted - rejected;
    rejected;
    dropped;
    completed;
    mean_satisfaction = Stats.mean sats;
    p5_satisfaction = (match sats with [] -> 0.0 | _ :: _ -> Stats.percentile 5.0 sats);
    rejection_pct = pct rejected;
    drop_pct = pct dropped;
    robustness;
  }

let pp_robustness ppf r =
  Format.fprintf ppf
    "crashes=%d recoveries=%d down-epochs=%d timeouts=%d retries=%d fetch-failures=%d \
     stale-epochs=%d counters-lost=%d install-failures=%d reinstalls=%d"
    r.crashes r.recoveries r.switch_down_epochs r.fetch_timeouts r.fetch_retries r.fetch_failures
    r.stale_epochs r.counters_lost r.install_failures r.recovery_reinstalls;
  if r.controller_crashes > 0 || r.reconcile_removed > 0 || r.reconcile_installed > 0 then
    Format.fprintf ppf " controller-crashes=%d reconciled(-%d +%d)" r.controller_crashes
      r.reconcile_removed r.reconcile_installed;
  if r.partitions > 0 || r.partition_epochs > 0 then
    Format.fprintf ppf " partitions=%d partition-epochs=%d" r.partitions r.partition_epochs;
  if r.breaker_opens > 0 || r.breaker_probes > 0 || r.breaker_skips > 0 then
    Format.fprintf ppf " breaker(opens=%d probes=%d skips=%d)" r.breaker_opens r.breaker_probes
      r.breaker_skips;
  if r.sheds > 0 then Format.fprintf ppf " sheds=%d" r.sheds

let pp_summary ppf s =
  Format.fprintf ppf
    "submitted=%d admitted=%d satisfaction(mean=%.1f%% p5=%.1f%%) reject=%.1f%% drop=%.1f%%"
    s.submitted s.admitted s.mean_satisfaction s.p5_satisfaction s.rejection_pct s.drop_pct;
  if s.robustness <> no_faults then Format.fprintf ppf " [%a]" pp_robustness s.robustness
