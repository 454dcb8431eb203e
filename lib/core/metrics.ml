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

type robustness = {
  crashes : int;
  recoveries : int;
  switch_down_epochs : int;
  fetch_timeouts : int;
  fetch_retries : int;
  fetch_failures : int;
  stale_epochs : int;
  counters_lost : int;
  install_failures : int;
  recovery_reinstalls : int;
  controller_crashes : int;
  reconcile_removed : int;
  reconcile_installed : int;
  invariant_violations : int;
  partitions : int;
  partition_epochs : int;
  breaker_opens : int;
  breaker_probes : int;
  breaker_skips : int;
  sheds : int;
}

(* Registry-backed robustness tallies: the exporters and {!robustness}
   read the same cells, so there is exactly one copy of each tally. *)
module Tallies = struct
  module Counter = Dream_obs.Registry.Counter

  type t = {
    crashes : Counter.t;
    recoveries : Counter.t;
    switch_down_epochs : Counter.t;
    fetch_timeouts : Counter.t;
    fetch_retries : Counter.t;
    fetch_failures : Counter.t;
    stale_epochs : Counter.t;
    counters_lost : Counter.t;
    install_failures : Counter.t;
    recovery_reinstalls : Counter.t;
    controller_crashes : Counter.t;
    reconcile_removed : Counter.t;
    reconcile_installed : Counter.t;
    invariant_violations : Counter.t;
    partitions : Counter.t;
    partition_epochs : Counter.t;
    breaker_opens : Counter.t;
    breaker_probes : Counter.t;
    breaker_skips : Counter.t;
    sheds : Counter.t;
  }

  let of_registry reg =
    let c name = Dream_obs.Registry.counter reg name in
    {
      crashes = c "crashes";
      recoveries = c "recoveries";
      switch_down_epochs = c "switch_down_epochs";
      fetch_timeouts = c "fetch_timeouts";
      fetch_retries = c "fetch_retries";
      fetch_failures = c "fetch_failures";
      stale_epochs = c "stale_epochs";
      counters_lost = c "counters_lost";
      install_failures = c "install_failures";
      recovery_reinstalls = c "recovery_reinstalls";
      controller_crashes = c "controller_crashes";
      reconcile_removed = c "reconcile_removed";
      reconcile_installed = c "reconcile_installed";
      invariant_violations = c "invariant_violations";
      partitions = c "partitions";
      partition_epochs = c "partition_epochs";
      breaker_opens = c "breaker_opens";
      breaker_probes = c "breaker_probes";
      breaker_skips = c "breaker_skips";
      sheds = c "sheds";
    }

  let set t (v : robustness) =
    Counter.set t.crashes v.crashes;
    Counter.set t.recoveries v.recoveries;
    Counter.set t.switch_down_epochs v.switch_down_epochs;
    Counter.set t.fetch_timeouts v.fetch_timeouts;
    Counter.set t.fetch_retries v.fetch_retries;
    Counter.set t.fetch_failures v.fetch_failures;
    Counter.set t.stale_epochs v.stale_epochs;
    Counter.set t.counters_lost v.counters_lost;
    Counter.set t.install_failures v.install_failures;
    Counter.set t.recovery_reinstalls v.recovery_reinstalls;
    Counter.set t.controller_crashes v.controller_crashes;
    Counter.set t.reconcile_removed v.reconcile_removed;
    Counter.set t.reconcile_installed v.reconcile_installed;
    Counter.set t.invariant_violations v.invariant_violations;
    Counter.set t.partitions v.partitions;
    Counter.set t.partition_epochs v.partition_epochs;
    Counter.set t.breaker_opens v.breaker_opens;
    Counter.set t.breaker_probes v.breaker_probes;
    Counter.set t.breaker_skips v.breaker_skips;
    Counter.set t.sheds v.sheds

  let read t : robustness =
    {
      crashes = Counter.value t.crashes;
      recoveries = Counter.value t.recoveries;
      switch_down_epochs = Counter.value t.switch_down_epochs;
      fetch_timeouts = Counter.value t.fetch_timeouts;
      fetch_retries = Counter.value t.fetch_retries;
      fetch_failures = Counter.value t.fetch_failures;
      stale_epochs = Counter.value t.stale_epochs;
      counters_lost = Counter.value t.counters_lost;
      install_failures = Counter.value t.install_failures;
      recovery_reinstalls = Counter.value t.recovery_reinstalls;
      controller_crashes = Counter.value t.controller_crashes;
      reconcile_removed = Counter.value t.reconcile_removed;
      reconcile_installed = Counter.value t.reconcile_installed;
      invariant_violations = Counter.value t.invariant_violations;
      partitions = Counter.value t.partitions;
      partition_epochs = Counter.value t.partition_epochs;
      breaker_opens = Counter.value t.breaker_opens;
      breaker_probes = Counter.value t.breaker_probes;
      breaker_skips = Counter.value t.breaker_skips;
      sheds = Counter.value t.sheds;
    }
end

(* All counters zero: what a fresh set of tallies reads. *)
let no_faults = Tallies.read (Tallies.of_registry (Dream_obs.Registry.create ()))

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
  if r.sheds > 0 then Format.fprintf ppf " sheds=%d" r.sheds;
  if r.invariant_violations > 0 then
    Format.fprintf ppf " INVARIANT-VIOLATIONS=%d" r.invariant_violations

let pp_summary ppf s =
  Format.fprintf ppf
    "submitted=%d admitted=%d satisfaction(mean=%.1f%% p5=%.1f%%) reject=%.1f%% drop=%.1f%%"
    s.submitted s.admitted s.mean_satisfaction s.p5_satisfaction s.rejection_pct s.drop_pct;
  if s.robustness <> no_faults then Format.fprintf ppf " [%a]" pp_robustness s.robustness
