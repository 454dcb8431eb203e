module Prefix = Dream_prefix.Prefix
module Switch_id = Dream_traffic.Switch_id
module Epoch_data = Dream_traffic.Epoch_data
module Aggregate = Dream_traffic.Aggregate
module Arena = Dream_util.Arena
module Source = Dream_traffic.Source
module Fault_model = Dream_fault.Fault_model
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Data_plane = Dream_switch.Data_plane
module Delay_model = Dream_switch.Delay_model
module Breaker = Dream_switch.Breaker
module Task = Dream_tasks.Task
module Task_spec = Dream_tasks.Task_spec
module Report = Dream_tasks.Report
module Ground_truth = Dream_tasks.Ground_truth
module Allocator = Dream_alloc.Allocator
module Task_view = Dream_alloc.Task_view
module Journal = Dream_recovery.Journal
module Invariant = Dream_recovery.Invariant
module C = Dream_util.Codec
module Obs = Dream_obs
module Ctr = Dream_obs.Registry.Counter
module Tr = Dream_obs.Trace

let log_src = Logs.Src.create "dream.controller" ~doc:"DREAM controller events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type runtime = {
  task : Task.t;
  source : Source.t;
  ground_truth : Ground_truth.t;
  duration : int;
  arrived_at : int;
  drop_priority : int;
  mutable active_epochs : int;
  mutable satisfied_epochs : int;
  mutable accuracy_sum : float;
  mutable poor_streak : int;
  mutable last_alloc_total : int;
  mutable last_report : Report.t option;
  mutable fresh_rules : Prefix.Set.t Switch_id.Map.t; (* installed by the last sync *)
  mutable last_install_counts : int Switch_id.Map.t;
  mutable stale_counters : (Prefix.t * float) list Switch_id.Map.t;
      (* last successfully fetched readings per switch, the fallback when a
         switch is down or a fetch is abandoned (fault injection only) *)
  mutable staleness : int;
      (* consecutive epochs this task reported with at least one stale or
         missing switch (degraded mode only; 0 when fully fresh) *)
}

(* Hoisted out of [tick] (and the other per-epoch walks over [t.active])
   so sorting runtimes builds no comparator closure per epoch. *)
let runtime_order (a : runtime) (b : runtime) = Int.compare (Task.id a.task) (Task.id b.task)
let cons_runtime _ (r : runtime) acc = r :: acc

type delay_sample = {
  epoch : int;
  fetch_ms : float;
  save_ms : float;
  report_ms : float;
  allocate_ms : float;
  configure_ms : float;
}

(* Robustness counters.  These live in the metrics registry (the
   telemetry bundle's when one is attached, a private one otherwise), so
   the exporters and {!Metrics.robustness} read the same cells — there is
   exactly one copy of each tally. *)
type rob = {
  crashes : Ctr.t;
  recoveries : Ctr.t;
  switch_down_epochs : Ctr.t;
  fetch_timeouts : Ctr.t;
  fetch_retries : Ctr.t;
  fetch_failures : Ctr.t;
  stale_epochs : Ctr.t;
  counters_lost : Ctr.t;
  install_failures : Ctr.t;
  recovery_reinstalls : Ctr.t;
  controller_crashes : Ctr.t;
  reconcile_removed : Ctr.t;
  reconcile_installed : Ctr.t;
  invariant_violations : Ctr.t;
  partitions : Ctr.t;
  partition_epochs : Ctr.t;
  breaker_opens : Ctr.t;
  breaker_probes : Ctr.t;
  breaker_skips : Ctr.t;
  sheds : Ctr.t;
}

let rob_of_registry reg =
  let c name = Obs.Registry.counter reg name in
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

let set_robustness rob (v : Metrics.robustness) =
  Ctr.set rob.crashes v.Metrics.crashes;
  Ctr.set rob.recoveries v.Metrics.recoveries;
  Ctr.set rob.switch_down_epochs v.Metrics.switch_down_epochs;
  Ctr.set rob.fetch_timeouts v.Metrics.fetch_timeouts;
  Ctr.set rob.fetch_retries v.Metrics.fetch_retries;
  Ctr.set rob.fetch_failures v.Metrics.fetch_failures;
  Ctr.set rob.stale_epochs v.Metrics.stale_epochs;
  Ctr.set rob.counters_lost v.Metrics.counters_lost;
  Ctr.set rob.install_failures v.Metrics.install_failures;
  Ctr.set rob.recovery_reinstalls v.Metrics.recovery_reinstalls;
  Ctr.set rob.controller_crashes v.Metrics.controller_crashes;
  Ctr.set rob.reconcile_removed v.Metrics.reconcile_removed;
  Ctr.set rob.reconcile_installed v.Metrics.reconcile_installed;
  Ctr.set rob.invariant_violations v.Metrics.invariant_violations;
  Ctr.set rob.partitions v.Metrics.partitions;
  Ctr.set rob.partition_epochs v.Metrics.partition_epochs;
  Ctr.set rob.breaker_opens v.Metrics.breaker_opens;
  Ctr.set rob.breaker_probes v.Metrics.breaker_probes;
  Ctr.set rob.breaker_skips v.Metrics.breaker_skips;
  Ctr.set rob.sheds v.Metrics.sheds

type t = {
  config : Config.t;
  allocator : Allocator.t;
  switches : Switch.t array;
  planes : Data_plane.t array;
  faults : Fault_model.t option;
  tel : Obs.Telemetry.t option;
  registry : Obs.Registry.t; (* the bundle's, or a private one when [tel = None] *)
  clock : Obs.Clock.t;
  active : (int, runtime) Hashtbl.t;
  mutable epoch : int;
  mutable next_id : int;
  mutable records : Metrics.record list;
  mutable delays : delay_sample list; (* newest first *)
  rules_installed : Ctr.t;
  rules_fetched : Ctr.t;
  fast_path_builds : Ctr.t;
  sort_fallbacks : Ctr.t;
      (* per-switch aggregates of the epochs tasks read, split by whether
         their build skipped the combine sort *)
  rob : rob;
  mutable recovered_now : Switch_id.Set.t; (* switches back up as of this tick *)
  mutable journal : Journal.sink option;
  mutable crash_pending : bool;
      (* the fault model declared a controller crash this epoch; the driver
         decides whether to fail over (see {!recover}) *)
  breakers : Breaker.t array;
      (* per-switch circuit breakers; empty unless [config.degraded] and
         [config.faults] are both set *)
  mutable storm_pending : int;
      (* extra submissions the fault model's admission storm asks the
         driver to inject; read via {!storm_tasks_pending}, reset each tick *)
  arena : Arena.t;
      (* per-tick numeric scratch (rule-sync budgets and the like): reset at
         the top of every tick, never reallocated once slots hit their
         high-water marks *)
}

let create ~config ~strategy ~num_switches ~capacity =
  if num_switches <= 0 then
    invalid_arg
      (Printf.sprintf "Controller.create: num_switches must be positive, got %d" num_switches);
  if capacity <= 0 then
    invalid_arg (Printf.sprintf "Controller.create: capacity must be positive, got %d" capacity);
  (* Same positive-form checks as Fault_model.validate: NaN fails every
     comparison, so [not (x > 0.0 && x <= 1.0)] rejects it where
     [x <= 0.0 || x > 1.0] would wave it through. *)
  (match config.Config.degraded with
  | Some d ->
    if not (d.Config.deadline_fraction > 0.0 && d.Config.deadline_fraction <= 1.0) then
      invalid_arg
        (Printf.sprintf "Controller.create: degraded.deadline_fraction must be in (0, 1], got %g"
           d.Config.deadline_fraction);
    if d.Config.shed_max_staleness < 1 then
      invalid_arg
        (Printf.sprintf "Controller.create: degraded.shed_max_staleness must be >= 1, got %d"
           d.Config.shed_max_staleness)
  | None -> ());
  let switches = Switch.network ~num_switches ~capacity in
  let faults =
    Option.map (fun spec -> Fault_model.create spec ~num_switches) config.Config.faults
  in
  let planes = Array.map (fun sw -> Data_plane.create ?faults sw) switches in
  let capacities = Array.to_list (Array.map (fun sw -> (Switch.id sw, capacity)) switches) in
  let tel = config.Config.telemetry in
  (* Breakers exist only when both the fault layer and the degraded-mode
     policy are on; an empty array keeps every other path untouched. *)
  let breakers =
    match (config.Config.degraded, faults) with
    | Some d, Some _ -> Array.init num_switches (fun _ -> Breaker.create d.Config.breaker)
    | _ -> [||]
  in
  let registry =
    match tel with Some b -> Obs.Telemetry.registry b | None -> Obs.Registry.create ()
  in
  let clock = match tel with Some b -> Obs.Telemetry.clock b | None -> Obs.Clock.cpu in
  (* Self-describing trace: record the fault schedule the bundle ran under. *)
  (match (tel, config.Config.faults) with
  | Some b, Some spec ->
    Tr.event (Obs.Telemetry.trace b) ~epoch:0 ~name:"fault_spec"
      [ ("spec", Tr.Str (Format.asprintf "%a" Fault_model.pp_spec spec)) ]
  | _ -> ());
  {
    config;
    allocator = Allocator.create strategy ~capacities;
    switches;
    planes;
    faults;
    tel;
    registry;
    clock;
    active = Hashtbl.create 64;
    epoch = 0;
    next_id = 0;
    records = [];
    delays = [];
    rules_installed = Obs.Registry.counter registry "rules_installed";
    rules_fetched = Obs.Registry.counter registry "rules_fetched";
    fast_path_builds = Obs.Registry.counter registry "aggregate_sorted_fast_path";
    sort_fallbacks = Obs.Registry.counter registry "aggregate_sort_fallbacks";
    rob = rob_of_registry registry;
    recovered_now = Switch_id.Set.empty;
    journal = None;
    crash_pending = false;
    breakers;
    storm_pending = 0;
    arena = Arena.create ();
  }

let epoch t = t.epoch

let num_switches t = Array.length t.switches

let switches t = t.switches

let allocator t = t.allocator

let faults t = t.faults

let telemetry t = t.tel

(* Emit a trace event iff a telemetry bundle is attached.  Tracing never
   touches simulation state, so runs with and without a bundle stay
   bit-identical. *)
let trace_event t ~name fields =
  match t.tel with
  | None -> ()
  | Some b -> Tr.event (Obs.Telemetry.trace b) ~epoch:t.epoch ~name fields

let robustness t =
  {
    Metrics.crashes = Ctr.value t.rob.crashes;
    recoveries = Ctr.value t.rob.recoveries;
    switch_down_epochs = Ctr.value t.rob.switch_down_epochs;
    fetch_timeouts = Ctr.value t.rob.fetch_timeouts;
    fetch_retries = Ctr.value t.rob.fetch_retries;
    fetch_failures = Ctr.value t.rob.fetch_failures;
    stale_epochs = Ctr.value t.rob.stale_epochs;
    counters_lost = Ctr.value t.rob.counters_lost;
    install_failures = Ctr.value t.rob.install_failures;
    recovery_reinstalls = Ctr.value t.rob.recovery_reinstalls;
    controller_crashes = Ctr.value t.rob.controller_crashes;
    reconcile_removed = Ctr.value t.rob.reconcile_removed;
    reconcile_installed = Ctr.value t.rob.reconcile_installed;
    invariant_violations = Ctr.value t.rob.invariant_violations;
    partitions = Ctr.value t.rob.partitions;
    partition_epochs = Ctr.value t.rob.partition_epochs;
    breaker_opens = Ctr.value t.rob.breaker_opens;
    breaker_probes = Ctr.value t.rob.breaker_probes;
    breaker_skips = Ctr.value t.rob.breaker_skips;
    sheds = Ctr.value t.rob.sheds;
  }

let active_tasks t = Hashtbl.length t.active

let active_task_ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.active [])

let last_report t ~task_id =
  match Hashtbl.find_opt t.active task_id with Some r -> r.last_report | None -> None

let smoothed_accuracy t ~task_id =
  match Hashtbl.find_opt t.active task_id with
  | Some r -> Some (Task.smoothed_global r.task)
  | None -> None

let view_of_runtime r =
  {
    Task_view.id = Task.id r.task;
    switches = Task.switches r.task;
    bound = (Task.spec r.task).Task_spec.accuracy_bound;
    drop_priority = r.drop_priority;
    overall = (fun sw -> Task.overall_accuracy r.task sw);
    used = (fun sw -> Task.counters_used r.task sw);
  }

(* ---- write-ahead journal ---- *)

let set_journal t sink = t.journal <- sink

let journal t = t.journal

let journaling t = t.journal <> None

let jot t entry = match t.journal with None -> () | Some sink -> Journal.append sink entry

let controller_crash_pending t = t.crash_pending

let storm_tasks_pending t = t.storm_pending

let degraded_mode t = t.breakers <> [||]

let breaker_states t = Array.map Breaker.state t.breakers

let staleness_of t ~task_id =
  match Hashtbl.find_opt t.active task_id with Some r -> Some r.staleness | None -> None

let task_switches t ~task_id =
  match Hashtbl.find_opt t.active task_id with
  | Some r -> Some (Task.switches r.task)
  | None -> None

(* One definition of "the invariants hold right now", shared by the
   in-tick tally (config.check_invariants) and external oracles (the chaos
   harness), so they can never drift apart. *)
let check_invariants_now t =
  let tasks =
    List.sort
      (fun a b -> Int.compare (Task.id a) (Task.id b))
      (Hashtbl.fold (fun _ r acc -> r.task :: acc) t.active [])
  in
  (* "Up" for auditing means the controller could actually converge the
     switch this epoch: alive, reachable, not skipped by an open breaker.
     A partitioned or breaker-skipped switch holds deferred rule updates
     by design and is reconciled once it becomes reachable again, exactly
     like a down switch. *)
  let up sw =
    (not (Data_plane.down t.planes.(sw)))
    && (not (Data_plane.partitioned t.planes.(sw)))
    &&
    match t.breakers with
    | [||] -> true
    | breakers -> begin
      match Breaker.state breakers.(sw) with
      | Breaker.Closed -> true
      | Breaker.Open | Breaker.Half_open -> false
    end
  in
  Invariant.check_all ~allocator:t.allocator ~switches:t.switches ~up ~tasks

let staleness_levels t =
  Hashtbl.fold (fun _ r acc -> r.staleness :: acc) t.active [] |> List.sort compare

let max_staleness t = Hashtbl.fold (fun _ r acc -> max acc r.staleness) t.active 0

let submit t ~spec ~topology ~source ~duration =
  let id = t.next_id in
  t.next_id <- id + 1;
  let task =
    Task.create ~id ~spec ~topology ~accuracy_history:t.config.Config.accuracy_history
      ~accuracy_mode:t.config.Config.accuracy_mode ()
  in
  (* Default drop priority: most recently arrived tasks drop first; an
     explicit spec priority takes precedence. *)
  let drop_priority =
    if spec.Task_spec.drop_priority <> 0 then spec.Task_spec.drop_priority else id
  in
  let runtime =
    {
      task;
      source;
      ground_truth = Ground_truth.create spec;
      duration;
      arrived_at = t.epoch;
      drop_priority;
      active_epochs = 0;
      satisfied_epochs = 0;
      accuracy_sum = 0.0;
      poor_streak = 0;
      last_alloc_total = 0;
      last_report = None;
      fresh_rules = Switch_id.Map.empty;
      last_install_counts = Switch_id.Map.empty;
      stale_counters = Switch_id.Map.empty;
      staleness = 0;
    }
  in
  let view = view_of_runtime runtime in
  if Allocator.try_admit t.allocator view then begin
    (* Journal the admission outcome before the task takes effect.  The
       entry carries everything replay needs to re-apply it verbatim —
       including the traffic source serialized at this instant, which replay
       fast-forwards to the recovery epoch. *)
    if journaling t then begin
      let w = C.writer () in
      Source.emit w source;
      jot t
        (Journal.Admit
           {
             epoch = t.epoch;
             task_id = id;
             spec;
             topology;
             duration;
             drop_priority;
             accuracy_history = t.config.Config.accuracy_history;
             global_only = t.config.Config.accuracy_mode = Task.Global_only;
             source = C.contents w;
           })
    end;
    Hashtbl.replace t.active id runtime;
    Ctr.incr (Obs.Registry.counter t.registry "tasks_admitted");
    trace_event t ~name:"task_admit"
      [ ("task", Tr.Int id); ("kind", Tr.Str (Task_spec.kind_to_string spec.Task_spec.kind)) ];
    Log.info (fun m ->
        m "epoch %d: admitted task %d (%a, %d epochs)" t.epoch id Task_spec.pp spec duration);
    `Admitted id
  end
  else begin
    jot t (Journal.Reject { epoch = t.epoch; task_id = id; kind = spec.Task_spec.kind });
    t.records <-
      {
        Metrics.task_id = id;
        kind = spec.Task_spec.kind;
        outcome = Metrics.Rejected;
        arrived_at = t.epoch;
        ended_at = t.epoch;
        active_epochs = 0;
        satisfaction = 0.0;
        mean_accuracy = 0.0;
      }
      :: t.records;
    Ctr.incr (Obs.Registry.counter t.registry "tasks_rejected");
    trace_event t ~name:"task_reject"
      [ ("task", Tr.Int id); ("kind", Tr.Str (Task_spec.kind_to_string spec.Task_spec.kind)) ];
    Log.info (fun m -> m "epoch %d: rejected task %d (%a)" t.epoch id Task_spec.pp spec);
    `Rejected
  end

let finish_record r ~outcome ~ended_at =
  let spec = Task.spec r.task in
  let active = r.active_epochs in
  {
    Metrics.task_id = Task.id r.task;
    kind = spec.Task_spec.kind;
    outcome;
    arrived_at = r.arrived_at;
    ended_at;
    active_epochs = active;
    satisfaction =
      (if active = 0 then 0.0 else float_of_int r.satisfied_epochs /. float_of_int active);
    mean_accuracy = (if active = 0 then 0.0 else r.accuracy_sum /. float_of_int active);
  }

let remove_task t r ~outcome =
  let id = Task.id r.task in
  Log.info (fun m ->
      m "epoch %d: task %d %s after %d active epochs" t.epoch id
        (match outcome with
        | Metrics.Completed -> "completed"
        | Metrics.Dropped -> "DROPPED"
        | Metrics.Rejected -> "rejected")
        r.active_epochs);
  let record = finish_record r ~outcome ~ended_at:t.epoch in
  (* Journal the end (with its final record fields) and the rule purge
     before either takes effect: if the controller dies in between, replay
     still retires the task and the audit removes its now-unowned rules. *)
  if journaling t then begin
    let cause =
      match outcome with
      | Metrics.Dropped -> Journal.Dropped
      | Metrics.Completed | Metrics.Rejected -> Journal.Completed
    in
    jot t
      (Journal.Task_end
         {
           epoch = t.epoch;
           task_id = id;
           kind = record.Metrics.kind;
           cause;
           arrived_at = record.Metrics.arrived_at;
           active_epochs = record.Metrics.active_epochs;
           satisfaction = record.Metrics.satisfaction;
           mean_accuracy = record.Metrics.mean_accuracy;
         });
    jot t (Journal.Purge { epoch = t.epoch; task_id = id })
  end;
  Allocator.release t.allocator ~task_id:id;
  Array.iter (fun sw -> ignore (Tcam.remove_owner (Switch.tcam sw) ~owner:id)) t.switches;
  Hashtbl.remove t.active id;
  t.records <- record :: t.records;
  let kind = Task_spec.kind_to_string record.Metrics.kind in
  match outcome with
  | Metrics.Dropped ->
    Ctr.incr (Obs.Registry.counter t.registry "tasks_dropped");
    trace_event t ~name:"task_drop"
      [ ("task", Tr.Int id); ("kind", Tr.Str kind);
        ("active_epochs", Tr.Int record.Metrics.active_epochs) ]
  | Metrics.Completed ->
    Ctr.incr (Obs.Registry.counter t.registry "tasks_completed");
    trace_event t ~name:"task_complete"
      [ ("task", Tr.Int id); ("kind", Tr.Str kind);
        ("satisfaction", Tr.Float record.Metrics.satisfaction) ]
  | Metrics.Rejected -> ()

let delay_costs t =
  match t.config.Config.control_delay with Some c -> c | None -> Delay_model.default

(* Fraction of the epoch a freshly installed rule missed while its update
   was in flight (Figs 8/9's prototype-vs-simulator gap). *)
let install_miss t r sw_id =
  match t.config.Config.control_delay with
  | None -> 0.0
  | Some costs ->
    let installs =
      match Switch_id.Map.find_opt sw_id r.last_install_counts with Some n -> n | None -> 0
    in
    Delay_model.install_miss_fraction costs ~epoch_ms:t.config.Config.epoch_ms ~installs
      ~switches:1

let degrade_fresh t r sw_id pairs =
  let miss = install_miss t r sw_id in
  let fresh =
    match Switch_id.Map.find_opt sw_id r.fresh_rules with
    | Some set -> set
    | None -> Prefix.Set.empty
  in
  List.map
    (fun (p, v) ->
      if miss > 0.0 && Prefix.Set.mem p fresh then (p, v *. (1.0 -. miss)) else (p, v))
    pairs

let count_fast_path _sw agg n = if Aggregate.sorted_fast_path agg then n + 1 else n

(* Draw the task's next epoch of traffic and count how its per-switch
   aggregates were built.  Pure observability: the counters never feed
   back into simulation state.  [count_fast_path] is toplevel so the fold
   allocates no closure. *)
let next_epoch t r =
  let data = Source.next r.source in
  let per_switch = data.Epoch_data.per_switch in
  let fast = Switch_id.Map.fold count_fast_path per_switch 0 in
  Ctr.add t.fast_path_builds fast;
  Ctr.add t.sort_fallbacks (Switch_id.Map.cardinal per_switch - fast);
  data

(* Counter fetch over a perfectly reliable control channel — the paper's
   assumption, and the behaviour when no fault spec is configured. *)
let read_counters_reliable t r =
  let id = Task.id r.task in
  let data = next_epoch t r in
  let readings =
    Array.to_list t.switches
    |> List.filter_map (fun sw ->
           let sw_id = Switch.id sw in
           let rules = Tcam.rules_of (Switch.tcam sw) ~owner:id in
           if rules = [] then None
           else begin
             let aggregate = Epoch_data.switch_view data sw_id in
             let pairs = Tcam.read (Switch.tcam sw) ~owner:id aggregate in
             Some (sw_id, degrade_fresh t r sw_id pairs)
           end)
  in
  (data, readings)

(* ---- circuit breakers (degraded mode only; [t.breakers] is empty
   otherwise and every breaker hook below is a no-op) ---- *)

let breaker_for t sw_id = if t.breakers = [||] then None else Some t.breakers.(sw_id)

let record_breaker_failure t sw_id br =
  let was_open = match Breaker.state br with Breaker.Open -> true | _ -> false in
  Breaker.record_failure br;
  match Breaker.state br with
  | Breaker.Open when not was_open ->
    Ctr.incr t.rob.breaker_opens;
    trace_event t ~name:"breaker_open" [ ("switch", Tr.Int sw_id) ];
    Log.info (fun m -> m "epoch %d: breaker OPEN for switch %d" t.epoch sw_id)
  | _ -> ()

let record_breaker_success t sw_id br =
  let was_half_open = match Breaker.state br with Breaker.Half_open -> true | _ -> false in
  Breaker.record_success br;
  if was_half_open then begin
    trace_event t ~name:"breaker_close" [ ("switch", Tr.Int sw_id) ];
    Log.info (fun m -> m "epoch %d: breaker closed for switch %d (probe ok)" t.epoch sw_id)
  end

(* Modelled cost the deadline scheduler expects this task's fetch round to
   incur: one batch per switch holding its rules, inflated by straggler
   latency.  Partitioned switches cost their (failed) probe round trip;
   open-breaker switches cost nothing — they are skipped outright. *)
let estimate_fetch_cost t r =
  let id = Task.id r.task in
  let costs = delay_costs t in
  Array.fold_left
    (fun acc dp ->
      let sw_id = Data_plane.id dp in
      if Data_plane.down dp then acc
      else begin
        match breaker_for t sw_id with
        | Some br when not (Breaker.allow br) -> acc
        | _ -> begin
          match Data_plane.rules_of dp ~owner:id with
          | [] -> acc
          | rules ->
            let factor = Data_plane.latency_factor dp in
            if Data_plane.partitioned dp then acc +. (costs.Delay_model.rtt_ms *. factor)
            else
              acc
              +. ((costs.Delay_model.fetch_per_rule_ms *. float_of_int (List.length rules)
                  +. costs.Delay_model.rtt_ms)
                 *. factor)
        end
      end)
    0.0 t.planes

(* Fault-aware fetch: timed-out batches are retried with exponential
   backoff while the epoch's retry budget (and, in degraded mode, the
   epoch deadline) lasts; a down, unreachable or breaker-skipped switch,
   or a fetch abandoned after retries, falls back to the previous epoch's
   readings.  [shed] short-circuits the whole round onto stale counters —
   the deadline scheduler's decision, taken before any wire cost is paid.
   Returns the switches the task could not hear from, so the caller can
   decay the task's estimated accuracy after this epoch's estimate. *)
let read_counters_faulty t r ~retry_budget ~fault_ms ~deadline ~shed =
  let id = Task.id r.task in
  let data = next_epoch t r in
  let costs = delay_costs t in
  let task_switches = Task.switches r.task in
  let readings = ref [] in
  let degraded = ref [] in
  let use_stale sw_id =
    match Switch_id.Map.find_opt sw_id r.stale_counters with
    | Some ((_ :: _) as pairs) ->
      readings := (sw_id, pairs) :: !readings;
      Ctr.incr t.rob.stale_epochs
    | Some [] | None -> ()
  in
  if shed then
    (* Traffic still flowed (the source draw above); the task just reports
       from whatever it last heard. *)
    Switch_id.Set.iter
      (fun sw_id ->
        use_stale sw_id;
        degraded := sw_id :: !degraded)
      task_switches
  else
    Array.iter
      (fun dp ->
        let sw_id = Data_plane.id dp in
        if Data_plane.down dp then begin
          if Switch_id.Set.mem sw_id task_switches then begin
            use_stale sw_id;
            degraded := sw_id :: !degraded
          end
        end
        else begin
          let rules = Data_plane.rules_of dp ~owner:id in
          if rules <> [] then begin
            match breaker_for t sw_id with
            | Some br when not (Breaker.allow br) ->
              Ctr.incr t.rob.breaker_skips;
              use_stale sw_id;
              degraded := sw_id :: !degraded
            | br_opt ->
              let aggregate = Epoch_data.switch_view data sw_id in
              let factor = Data_plane.latency_factor dp in
              let base =
                (costs.Delay_model.fetch_per_rule_ms *. float_of_int (List.length rules))
                +. costs.Delay_model.rtt_ms
              in
              (* The aggregate TCAM stats already price [base] per issued
                 batch; stragglers owe the inflation on top, and the epoch
                 deadline owes the whole inflated batch. *)
              let charge_batch () =
                fault_ms := !fault_ms +. (base *. (factor -. 1.0));
                deadline := !deadline -. (base *. factor)
              in
              let rec attempt k =
                match Data_plane.read dp ~owner:id aggregate with
                | Ok pairs ->
                  charge_batch ();
                  `Fetched pairs
                | Error `Down -> `Gone
                | Error `Unreachable ->
                  (* No route: nothing was priced in the TCAM stats, but
                     the probe still costs the control loop a round trip. *)
                  let probe = costs.Delay_model.rtt_ms *. factor in
                  fault_ms := !fault_ms +. probe;
                  deadline := !deadline -. probe;
                  `Unreachable
                | Error `Timeout ->
                  charge_batch ();
                  Ctr.incr t.rob.fetch_timeouts;
                  let backoff = costs.Delay_model.rtt_ms *. (2.0 ** float_of_int k) in
                  if !retry_budget >= backoff && !deadline >= backoff then begin
                    retry_budget := !retry_budget -. backoff;
                    fault_ms := !fault_ms +. backoff;
                    deadline := !deadline -. backoff;
                    Ctr.incr t.rob.fetch_retries;
                    attempt (k + 1)
                  end
                  else begin
                    Ctr.incr t.rob.fetch_failures;
                    `Abandoned
                  end
              in
              (match attempt 0 with
              | `Fetched pairs ->
                (match br_opt with Some br -> record_breaker_success t sw_id br | None -> ());
                let lost = List.length rules - List.length pairs in
                if lost > 0 then Ctr.add t.rob.counters_lost lost;
                let pairs = degrade_fresh t r sw_id pairs in
                r.stale_counters <- Switch_id.Map.add sw_id pairs r.stale_counters;
                readings := (sw_id, pairs) :: !readings
              | `Gone ->
                use_stale sw_id;
                degraded := sw_id :: !degraded
              | `Unreachable | `Abandoned ->
                (match br_opt with Some br -> record_breaker_failure t sw_id br | None -> ());
                use_stale sw_id;
                degraded := sw_id :: !degraded)
          end
        end)
      t.planes;
  (data, List.rev !readings, List.rev !degraded)

let read_counters t r ~retry_budget ~fault_ms ~deadline ~shed =
  match t.faults with
  | None ->
    let data, readings = read_counters_reliable t r in
    (data, readings, [])
  | Some _ -> read_counters_faulty t r ~retry_budget ~fault_ms ~deadline ~shed

(* Advance the fault model one epoch: crashed switches lose their TCAM
   contents before anything is fetched; recovered switches are remembered
   so this tick's rule sync can reinstall (and attribute) their rules. *)
let advance_faults t =
  t.crash_pending <- false;
  t.storm_pending <- 0;
  match t.faults with
  | None -> ()
  | Some fm ->
    let events = Fault_model.begin_epoch fm in
    List.iter
      (fun sw_id ->
        jot t (Journal.Switch_down { epoch = t.epoch; switch = sw_id });
        Data_plane.crash t.planes.(sw_id);
        Ctr.incr t.rob.crashes;
        trace_event t ~name:"switch_crash" [ ("switch", Tr.Int sw_id) ];
        Log.info (fun m -> m "epoch %d: switch %d CRASHED (TCAM lost)" t.epoch sw_id))
      events.Fault_model.crashed;
    List.iter
      (fun sw_id ->
        jot t (Journal.Switch_up { epoch = t.epoch; switch = sw_id });
        trace_event t ~name:"switch_recover" [ ("switch", Tr.Int sw_id) ];
        Log.info (fun m -> m "epoch %d: switch %d recovered" t.epoch sw_id))
      events.Fault_model.recovered;
    t.recovered_now <- Switch_id.set_of_list events.Fault_model.recovered;
    Ctr.add t.rob.recoveries (List.length events.Fault_model.recovered);
    Ctr.add t.rob.switch_down_epochs (Fault_model.down_count fm);
    if events.Fault_model.controller_crashed then begin
      t.crash_pending <- true;
      trace_event t ~name:"controller_crash_scheduled" [];
      Log.info (fun m -> m "epoch %d: CONTROLLER crash scheduled" t.epoch)
    end;
    (* Sustained adversity: partition windows, admission storms, breakers. *)
    List.iter
      (fun g ->
        trace_event t ~name:"partition" [ ("group", Tr.Int g) ];
        Log.info (fun m -> m "epoch %d: switch group %d PARTITIONED" t.epoch g))
      events.Fault_model.partitioned;
    List.iter
      (fun g ->
        trace_event t ~name:"partition_heal" [ ("group", Tr.Int g) ];
        (* A heal is a strong recovery signal: open breakers in the group
           forfeit their cooldown and probe at this epoch's boundary
           instead of blindly waiting it out. *)
        Array.iteri
          (fun sw br -> if Fault_model.group_of fm sw = g then Breaker.hint_probe br)
          t.breakers;
        Log.info (fun m -> m "epoch %d: switch group %d partition healed" t.epoch g))
      events.Fault_model.healed;
    Ctr.add t.rob.partitions (List.length events.Fault_model.partitioned);
    Ctr.add t.rob.partition_epochs (Fault_model.partitioned_count fm);
    if events.Fault_model.storm_tasks > 0 then begin
      t.storm_pending <- events.Fault_model.storm_tasks;
      trace_event t ~name:"admission_storm" [ ("tasks", Tr.Int events.Fault_model.storm_tasks) ]
    end;
    Array.iteri
      (fun sw br ->
        let was_open = match Breaker.state br with Breaker.Open -> true | _ -> false in
        Breaker.begin_epoch br;
        (match (was_open, Breaker.state br) with
        | true, Breaker.Half_open ->
          Ctr.incr t.rob.breaker_probes;
          trace_event t ~name:"breaker_probe" [ ("switch", Tr.Int sw) ]
        | _ -> ());
        Obs.Registry.Gauge.set
          (Obs.Registry.gauge t.registry
             ~labels:[ ("switch", string_of_int sw) ]
             "breaker_state")
          (float_of_int (Breaker.state_code (Breaker.state br))))
      t.breakers

(* Quarantine: a down switch contributes nothing, so divide-and-merge must
   reconfigure the task's counters onto the healthy switches.  Zeroing the
   allocation is exactly that signal — {!Task.configure} deactivates the
   switch and merges its counters away. *)
let quarantine_allocations t allocations =
  match t.faults with
  | None -> allocations
  | Some fm ->
    Switch_id.Map.mapi (fun sw v -> if Fault_model.is_down fm sw then 0 else v) allocations

(* ---- rule sync ----

   A task's installed rules (Tcam order) and its desired rules (monitor
   order) are both lists in Prefix.compare order, so each pass is one
   sorted-merge walk (Prefix.fold_diff) over the two: no set is built to
   diff them.  Each pass asks the monitor for the desired rules of the
   switch it is on (configure ran for every task before pass 1, and the
   passes do not touch monitors), so no task's lists outlive its walk. *)

(* Pass 1, one stale rule: delete it while the switch's update budget
   lasts.  Counts the deletions. *)
let remove_rule t ~id dp (budgets : Arena.ints) i p removed =
  if budgets.{i} > 0 then begin
    jot t (Journal.Delete { epoch = t.epoch; task_id = id; switch = Data_plane.id dp; prefix = p });
    match Data_plane.remove dp ~owner:id p with
    | Ok _ ->
      budgets.{i} <- budgets.{i} - 1;
      removed + 1
    | Error (`Down | `Unreachable) -> removed
  end
  else removed

let rec remove_stale t r budgets i removed =
  if i = Array.length t.planes then removed
  else begin
    let dp = t.planes.(i) in
    let id = Task.id r.task in
    let removed =
      Prefix.fold_diff (remove_rule t ~id dp budgets i) (Data_plane.rules_of dp ~owner:id)
        (Task.desired_rules r.task (Data_plane.id dp)) removed
    in
    remove_stale t r budgets (i + 1) removed
  end

(* Pass 2, one missing rule: install it while the switch's update budget
   lasts.  Collects the rules that landed.  Installs onto a switch that
   recovered this epoch are the full rule-set reinstall its crash
   demands. *)
let install_rule t ~id dp (budgets : Arena.ints) i p added =
  if budgets.{i} > 0 then begin
    let sw_id = Data_plane.id dp in
    jot t (Journal.Install { epoch = t.epoch; task_id = id; switch = sw_id; prefix = p });
    match Data_plane.install dp ~owner:id p with
    | Ok () ->
      budgets.{i} <- budgets.{i} - 1;
      if Switch_id.Set.mem sw_id t.recovered_now then Ctr.incr t.rob.recovery_reinstalls;
      Prefix.Set.add p added
    | Error `Failed ->
      (* The attempt consumed an update slot; the rule stays desired and
         is retried next epoch. *)
      budgets.{i} <- budgets.{i} - 1;
      Ctr.incr t.rob.install_failures;
      added
    | Error (`Capacity | `Duplicate | `Down | `Unreachable) -> added
  end
  else added

let rec install_missing t r budgets i =
  if i < Array.length t.planes then begin
    let dp = t.planes.(i) in
    let id = Task.id r.task in
    let added =
      Prefix.fold_diff (install_rule t ~id dp budgets i)
        (Task.desired_rules r.task (Data_plane.id dp))
        (Data_plane.rules_of dp ~owner:id) Prefix.Set.empty
    in
    if not (Prefix.Set.is_empty added) then begin
      let sw_id = Data_plane.id dp in
      r.fresh_rules <- Switch_id.Map.add sw_id added r.fresh_rules;
      r.last_install_counts <-
        Switch_id.Map.add sw_id (Prefix.Set.cardinal added) r.last_install_counts
    end;
    install_missing t r budgets (i + 1)
  end

let[@hot] tick t =
  let config = t.config in
  let now () = Obs.Clock.now_ms t.clock in
  let tick_t0 = now () in
  let tracing = t.tel <> None in
  (* GC profiling is strictly opt-in: with no profile attached [gc_now]
     never touches the runtime (it returns the zero reading), so a
     profiling-off run performs no GC read and stays byte-identical. *)
  let profile = match t.tel with Some tel -> Obs.Telemetry.profile tel | None -> None in
  let gc_now () =
    match profile with Some p -> Obs.Profile.reading p | None -> Obs.Gc_stats.zero
  in
  let tick_gc0 = gc_now () in
  Arena.reset t.arena;
  advance_faults t;
  let runtimes =
    List.sort runtime_order (Hashtbl.fold cons_runtime t.active [])
  in
  (* Reset per-epoch switch stats so the delay model prices this epoch. *)
  Array.iter (fun sw -> Tcam.reset_stats (Switch.tcam sw)) t.switches;
  (* Fetch + report + estimate, per task. *)
  let report_clock = ref 0.0 in
  let report_gc = ref Obs.Gc_stats.zero in
  let retry_budget =
    ref
      (match t.faults with
      | Some fm -> (Fault_model.spec fm).Fault_model.retry_budget_fraction *. config.Config.epoch_ms
      | None -> 0.0)
  in
  let fault_ms = ref 0.0 in
  let task_scores = ref [] in
  (* (id, kind, scored, satisfied) per task, for tasks.csv; tracing only *)
  let dcfg = if t.breakers = [||] then None else t.config.Config.degraded in
  let deadline =
    ref
      (match dcfg with
      | Some d -> d.Config.deadline_fraction *. config.Config.epoch_ms
      | None -> infinity)
  in
  (* Staleness-urgency order: the longest-starved tasks fetch first, so
     when the deadline budget runs out it is the freshest tasks that shed.
     With all-zero staleness the stable sort leaves task-id order intact —
     the zero-adversity zero-diff guarantee. *)
  let fetch_order =
    match dcfg with
    | None -> runtimes
    | Some _ ->
      List.stable_sort
        (fun a b ->
          match Int.compare b.staleness a.staleness with
          | 0 -> Int.compare (Task.id a.task) (Task.id b.task)
          | c -> c)
        runtimes
  in
  List.iter
    (fun r ->
      (* Shed before paying any wire cost: if the task's expected fetch
         round does not fit the remaining deadline budget, serve it stale —
         unless bounded staleness forces the fetch through regardless. *)
      let shed =
        match dcfg with
        | Some d when r.staleness < d.Config.shed_max_staleness ->
          let est = estimate_fetch_cost t r in
          est > 0.0 && est > !deadline
        | _ -> false
      in
      if shed then begin
        Ctr.incr t.rob.sheds;
        trace_event t ~name:"shed"
          [ ("task", Tr.Int (Task.id r.task)); ("staleness", Tr.Int r.staleness) ]
      end;
      let data, readings, degraded = read_counters t r ~retry_budget ~fault_ms ~deadline ~shed in
      Task.ingest_counters r.task readings;
      let t0 = now () in
      let gc0 = gc_now () in
      let report = Task.make_report r.task ~epoch:t.epoch in
      r.last_report <- Some report;
      let estimate = Task.estimate_accuracy r.task in
      report_clock := !report_clock +. (now () -. t0);
      report_gc := Obs.Gc_stats.add !report_gc (Obs.Gc_stats.sub (gc_now ()) gc0);
      (* Degraded visibility: the estimators only saw stale (or no)
         counters for these switches, so the estimate is optimistic — decay
         the smoothed accuracies the allocator reads. *)
      (match t.faults with
      | Some fm when degraded <> [] ->
        (* Bounded staleness caps the assumed uncertainty: under sustained
           adversity (a partition that never heals) an unbounded decay
           drives estimates to zero and the allocator into mass drops.  In
           degraded mode the decay stops once the task has been stale for
           [shed_max_staleness] epochs — the estimate is already discounted
           by [stale_decay^bound] and holds there. *)
        let apply =
          match dcfg with
          | Some d -> r.staleness < d.Config.shed_max_staleness
          | None -> true
        in
        if apply then begin
          let factor = (Fault_model.spec fm).Fault_model.stale_decay in
          List.iter (fun sw -> Task.decay_accuracy r.task ~switch:sw ~factor ()) degraded
        end
      | Some _ | None -> ());
      (* Bounded-staleness bookkeeping: one level per consecutive epoch
         with any stale or missing switch; a fully fresh round resets.
         Feeds the staleness-urgency sort and the accuracy-decay fallback
         above, and the task_staleness histogram exporters read. *)
      (match dcfg with
      | Some _ ->
        r.staleness <- (if degraded = [] then 0 else r.staleness + 1);
        Obs.Registry.Histogram.observe
          (Obs.Registry.histogram t.registry "task_staleness")
          (float_of_int r.staleness)
      | None -> ());
      let truth = Ground_truth.evaluate r.ground_truth data report in
      let spec = Task.spec r.task in
      let scored =
        match config.Config.score_satisfaction_with with
        | `Real_accuracy -> truth.Ground_truth.real_accuracy
        | `Estimated_accuracy -> estimate.Dream_tasks.Accuracy.global
      in
      r.active_epochs <- r.active_epochs + 1;
      r.accuracy_sum <- r.accuracy_sum +. scored;
      let satisfied = scored >= spec.Task_spec.accuracy_bound in
      if satisfied then r.satisfied_epochs <- r.satisfied_epochs + 1;
      if tracing then
        task_scores :=
          (Task.id r.task, Task_spec.kind_to_string spec.Task_spec.kind, scored, satisfied)
          :: !task_scores)
    fetch_order;
  (* Allocation epoch: redistribute and decide drops. *)
  let allocate_clock = ref 0.0 in
  let allocate_gc = ref Obs.Gc_stats.zero in
  if t.epoch mod config.Config.allocation_interval = 0 then begin
    (* Snapshot allocations before the round so tracing can price churn;
       taken outside the timed region. *)
    let alloc_before =
      if not tracing then []
      else
        List.map
          (fun r ->
            let id = Task.id r.task in
            (id, Allocator.allocation_of t.allocator ~task_id:id))
          runtimes
    in
    let t0 = now () in
    let gc0 = gc_now () in
    let views = List.map view_of_runtime runtimes in
    Allocator.reallocate t.allocator views;
    allocate_clock := now () -. t0;
    allocate_gc := Obs.Gc_stats.sub (gc_now ()) gc0;
    if tracing then begin
      let changes =
        List.fold_left
          (fun acc (id, old_map) ->
            let new_map = Allocator.allocation_of t.allocator ~task_id:id in
            let grown_or_moved =
              Switch_id.Map.fold
                (fun sw v acc ->
                  let old_v =
                    match Switch_id.Map.find_opt sw old_map with Some v -> v | None -> 0
                  in
                  if old_v <> v then acc + 1 else acc)
                new_map 0
            in
            let vacated =
              Switch_id.Map.fold
                (fun sw v acc ->
                  if v <> 0 && not (Switch_id.Map.mem sw new_map) then acc + 1 else acc)
                old_map 0
            in
            acc + grown_or_moved + vacated)
          0 alloc_before
      in
      if changes > 0 then begin
        Ctr.add (Obs.Registry.counter t.registry "allocation_changes") changes;
        trace_event t ~name:"reallocate" [ ("changes", Tr.Int changes) ]
      end
    end;
    (* Journal the round's outcome — every task's full allocation map, not
       just deltas, so replay restores the allocator by forcing values
       rather than re-running the (state-dependent) adaptation logic. *)
    if journaling t then
      List.iter
        (fun r ->
          let id = Task.id r.task in
          Switch_id.Map.iter
            (fun switch alloc -> jot t (Journal.Alloc { epoch = t.epoch; task_id = id; switch; alloc }))
            (Allocator.allocation_of t.allocator ~task_id:id))
        runtimes;
    if Allocator.supports_drop t.allocator then begin
      (* Track poor streaks and pick at most one drop victim per round:
         the poorest-priority task that stayed poor through the drop
         threshold while one of its switches was congested. *)
      let candidates =
        List.filter_map
          (fun r ->
            let spec = Task.spec r.task in
            let poor = Task.smoothed_global r.task < spec.Task_spec.accuracy_bound in
            let alloc_total =
              Switch_id.Map.fold
                (fun _ v acc -> acc + v)
                (Allocator.allocation_of t.allocator ~task_id:(Task.id r.task))
                0
            in
            (* A task still gaining resources is converging, not starved:
               only a poor task whose allocation has stopped growing
               accumulates a streak (paper: dropped tasks are those that
               "get fewer and fewer resources ... and remain poor"). *)
            let growing = alloc_total > r.last_alloc_total in
            r.last_alloc_total <- alloc_total;
            if poor && not growing then r.poor_streak <- r.poor_streak + 1
            else r.poor_streak <- 0;
            let congested_somewhere =
              Switch_id.Set.exists
                (fun sw -> Allocator.congested t.allocator sw)
                (Task.switches r.task)
            in
            if r.poor_streak >= config.Config.drop_threshold && congested_somewhere then Some r
            else None)
          runtimes
      in
      let victim =
        List.fold_left
          (fun acc r ->
            match acc with
            | None -> Some r
            | Some best -> if r.drop_priority > best.drop_priority then Some r else acc)
          None candidates
      in
      match victim with
      | Some r -> remove_task t r ~outcome:Metrics.Dropped
      | None -> ()
    end
  end;
  (* Reconfigure counters, then sync rules incrementally in two passes:
     all removals across tasks first, then installs — so one task's growth
     never transiently collides with space another task is vacating. *)
  let configure_clock = ref 0.0 in
  let configure_gc = ref Obs.Gc_stats.zero in
  let survivors = List.filter (fun r -> Hashtbl.mem t.active (Task.id r.task)) runtimes in
  List.iter
    (fun r ->
      let id = Task.id r.task in
      let allocations = Allocator.allocation_of t.allocator ~task_id:id in
      let allocations = quarantine_allocations t allocations in
      let t0 = now () in
      let gc0 = gc_now () in
      Task.configure r.task ~allocations;
      configure_clock := !configure_clock +. (now () -. t0);
      configure_gc := Obs.Gc_stats.add !configure_gc (Obs.Gc_stats.sub (gc_now ()) gc0))
    survivors;
  (* Per-switch rule-update budgets: a software switch applies everything,
     a hardware switch only [install_budget] updates per epoch (deferred
     ones are retried next epoch and the affected counters read nothing
     meanwhile — the cost that made the paper abandon hardware switches). *)
  let budgets = Arena.ints t.arena ~slot:0 ~len:(Array.length t.switches) in
  let initial_budget = match config.Config.install_budget with Some b -> b | None -> max_int in
  for i = 0 to Array.length t.switches - 1 do
    budgets.{i} <- initial_budget
  done;
  (* Pass 1: removals. *)
  let removals_by_task = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let removed = remove_stale t r budgets 0 0 in
      let id = Task.id r.task in
      if tracing && removed > 0 then Hashtbl.replace removals_by_task id removed)
    survivors;
  (* Pass 2: installs, newest rules skipped once a switch's budget runs
     out or its table is full. *)
  List.iter
    (fun r ->
      let id = Task.id r.task in
      r.fresh_rules <- Switch_id.Map.empty;
      r.last_install_counts <- Switch_id.Map.empty;
      install_missing t r budgets 0;
      if tracing then begin
        let installed = Switch_id.Map.fold (fun _ n acc -> acc + n) r.last_install_counts 0 in
        let removed =
          match Hashtbl.find_opt removals_by_task id with Some n -> n | None -> 0
        in
        (* Rule churn is divide-and-merge made visible: installs are
           drill-downs (or reinstalls), removals are merges and retreats. *)
        if installed + removed > 0 then
          trace_event t ~name:"rule_sync"
            [ ("task", Tr.Int id); ("installs", Tr.Int installed); ("removals", Tr.Int removed) ]
      end)
    survivors;
  (* Price the epoch's switch interactions for Fig 17. *)
  let fetch_total, install_total, remove_total, touched =
    Array.fold_left
      (fun (f, i, rm, sw_count) sw ->
        let stats = Tcam.stats (Switch.tcam sw) in
        let touched = if stats.Tcam.fetches > 0 || stats.Tcam.installs > 0 then 1 else 0 in
        (f + stats.Tcam.fetches, i + stats.Tcam.installs, rm + stats.Tcam.removals, sw_count + touched))
      (0, 0, 0, 0) t.switches
  in
  let costs = delay_costs t in
  let sample =
    {
      epoch = t.epoch;
      fetch_ms = Delay_model.fetch_ms costs ~rules:fetch_total ~switches:touched +. !fault_ms;
      save_ms = Delay_model.save_ms costs ~installs:install_total ~removals:remove_total ~switches:touched;
      report_ms = !report_clock;
      allocate_ms = !allocate_clock;
      configure_ms = !configure_clock;
    }
  in
  t.delays <- sample :: t.delays;
  Ctr.add t.rules_installed install_total;
  Ctr.add t.rules_fetched fetch_total;
  t.recovered_now <- Switch_id.Set.empty;
  let tail_t0 = now () in
  (* Retire tasks that reached their duration. *)
  List.iter
    (fun r ->
      if Hashtbl.mem t.active (Task.id r.task) && r.active_epochs >= r.duration then
        remove_task t r ~outcome:Metrics.Completed)
    survivors;
  if config.Config.check_invariants then begin
    let violations = check_invariants_now t in
    Ctr.add t.rob.invariant_violations (List.length violations);
    if violations <> [] then
      trace_event t ~name:"invariant_violation" [ ("count", Tr.Int (List.length violations)) ];
    List.iter
      (fun v ->
        Log.warn (fun m -> m "epoch %d: invariant violated — %s" t.epoch (Invariant.to_string v)))
      violations
  end;
  (match t.tel with
  | None -> ()
  | Some tel ->
    let tr = Obs.Telemetry.trace tel in
    let epoch = t.epoch in
    (* Phase spans: fetch and the configure tail are modelled switch time,
       estimate/allocate/configure bodies are measured controller time, and
       report is the record-keeping tail just timed above. *)
    let report_ms = now () -. tail_t0 in
    let phases =
      [ ("fetch", sample.fetch_ms); ("estimate", sample.report_ms);
        ("allocate", sample.allocate_ms); ("configure", sample.configure_ms +. sample.save_ms);
        ("report", report_ms); ("epoch", now () -. tick_t0) ]
    in
    List.iter
      (fun (phase, ms) ->
        Tr.span tr ~epoch ~phase ~ms;
        Obs.Registry.Histogram.observe
          (Obs.Registry.histogram t.registry ~labels:[ ("phase", phase) ] "phase_ms")
          ms)
      phases;
    (* Profile spans mirror the measured (not modelled) phases: estimate,
       allocate and configure bodies carry the GC deltas read around their
       timed regions; the epoch span carries the whole tick.  fetch/save
       are modelled switch time — no controller cost to attribute. *)
    (match profile with
    | None -> ()
    | Some p ->
      let epoch_wall = now () -. tick_t0 in
      let epoch_gc = Obs.Gc_stats.sub (gc_now ()) tick_gc0 in
      Obs.Profile.record p ~path:"epoch" ~wall_ms:epoch_wall ~gc:epoch_gc;
      Obs.Profile.record p ~path:"epoch/estimate" ~wall_ms:sample.report_ms ~gc:!report_gc;
      Obs.Profile.record p ~path:"epoch/allocate" ~wall_ms:sample.allocate_ms ~gc:!allocate_gc;
      Obs.Profile.record p ~path:"epoch/configure" ~wall_ms:sample.configure_ms
        ~gc:!configure_gc;
      Obs.Profile.observe_epoch p t.registry ~wall_ms:epoch_wall ~gc:epoch_gc);
    List.iter
      (fun (id, kind, accuracy, satisfied) ->
        let alloc =
          Switch_id.Map.fold
            (fun _ v acc -> acc + v)
            (Allocator.allocation_of t.allocator ~task_id:id)
            0
        in
        Obs.Telemetry.record_task tel
          { Obs.Telemetry.epoch; task = id; kind; accuracy; satisfied; alloc })
      (* task-id order regardless of the fetch schedule, so tasks.csv rows
         are stable across degraded-mode reorderings *)
      (List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) !task_scores);
    Array.iter
      (fun sw ->
        let stats = Tcam.stats (Switch.tcam sw) in
        Obs.Telemetry.record_switch tel
          {
            Obs.Telemetry.epoch;
            switch = Switch.id sw;
            rules = Tcam.used (Switch.tcam sw);
            fetches = stats.Tcam.fetches;
            installs = stats.Tcam.installs;
            removals = stats.Tcam.removals;
          })
      t.switches);
  t.epoch <- t.epoch + 1

let run t ~epochs =
  for _ = 1 to epochs do
    tick t
  done

let finalize t =
  let runtimes = Hashtbl.fold (fun _ r acc -> r :: acc) t.active [] in
  List.iter (fun r -> remove_task t r ~outcome:Metrics.Completed) runtimes

let records t = List.rev t.records

let summary t = Metrics.summarize ~robustness:(robustness t) (records t)

let delay_samples t = List.rev t.delays

let total_rules_installed t = Ctr.value t.rules_installed

let total_rules_fetched t = Ctr.value t.rules_fetched

(* ---- checkpoints ---- *)

let snapshot_magic = "dream-checkpoint v4"

let emit_config w (config : Config.t) =
  C.section w "config";
  C.int w "allocation_interval" config.Config.allocation_interval;
  C.int w "drop_threshold" config.Config.drop_threshold;
  C.float w "accuracy_history" config.Config.accuracy_history;
  C.float w "epoch_ms" config.Config.epoch_ms;
  C.bool w "has_control_delay" (config.Config.control_delay <> None);
  (match config.Config.control_delay with
  | Some c ->
    C.float w "fetch_per_rule_ms" c.Delay_model.fetch_per_rule_ms;
    C.float w "save_per_rule_ms" c.Delay_model.save_per_rule_ms;
    C.float w "delete_per_rule_ms" c.Delay_model.delete_per_rule_ms;
    C.float w "rtt_ms" c.Delay_model.rtt_ms
  | None -> ());
  C.bool w "score_real" (config.Config.score_satisfaction_with = `Real_accuracy);
  C.bool w "accuracy_overall" (config.Config.accuracy_mode = Task.Overall);
  C.bool w "has_install_budget" (config.Config.install_budget <> None);
  (match config.Config.install_budget with Some b -> C.int w "install_budget" b | None -> ());
  C.bool w "check_invariants" config.Config.check_invariants;
  C.bool w "has_degraded" (config.Config.degraded <> None);
  match config.Config.degraded with
  | Some d ->
    C.int w "breaker_threshold" d.Config.breaker.Breaker.failure_threshold;
    C.int w "breaker_cooldown" d.Config.breaker.Breaker.cooldown_epochs;
    C.float w "deadline_fraction" d.Config.deadline_fraction;
    C.int w "shed_max_staleness" d.Config.shed_max_staleness
  | None -> ()

(* The fault spec is not part of this section: the live fault model (RNG
   streams and all) is serialized separately, and the restored config gets
   its spec from there. *)
let parse_config r : Config.t =
  C.expect_section r "config";
  let allocation_interval = C.int_field r "allocation_interval" in
  let drop_threshold = C.int_field r "drop_threshold" in
  let accuracy_history = C.float_field r "accuracy_history" in
  let epoch_ms = C.float_field r "epoch_ms" in
  let control_delay =
    if C.bool_field r "has_control_delay" then begin
      let fetch_per_rule_ms = C.float_field r "fetch_per_rule_ms" in
      let save_per_rule_ms = C.float_field r "save_per_rule_ms" in
      let delete_per_rule_ms = C.float_field r "delete_per_rule_ms" in
      let rtt_ms = C.float_field r "rtt_ms" in
      Some { Delay_model.fetch_per_rule_ms; save_per_rule_ms; delete_per_rule_ms; rtt_ms }
    end
    else None
  in
  let score_satisfaction_with =
    if C.bool_field r "score_real" then `Real_accuracy else `Estimated_accuracy
  in
  let accuracy_mode = if C.bool_field r "accuracy_overall" then Task.Overall else Task.Global_only in
  let install_budget =
    if C.bool_field r "has_install_budget" then Some (C.int_field r "install_budget") else None
  in
  let check_invariants = C.bool_field r "check_invariants" in
  let degraded =
    if C.bool_field r "has_degraded" then begin
      let failure_threshold = C.int_field r "breaker_threshold" in
      let cooldown_epochs = C.int_field r "breaker_cooldown" in
      let deadline_fraction = C.float_field r "deadline_fraction" in
      let shed_max_staleness = C.int_field r "shed_max_staleness" in
      Some
        {
          Config.breaker = { Breaker.failure_threshold; cooldown_epochs };
          deadline_fraction;
          shed_max_staleness;
        }
    end
    else None
  in
  {
    Config.allocation_interval;
    drop_threshold;
    accuracy_history;
    epoch_ms;
    control_delay;
    score_satisfaction_with;
    accuracy_mode;
    install_budget;
    faults = None;
    degraded;
    check_invariants;
    telemetry = None;
  }

let emit_prefix_list w key prefixes =
  C.int w key (List.length prefixes);
  List.iter (fun p -> C.string w "p" (Prefix.to_string p)) prefixes

let parse_prefix_list r key =
  let n = C.int_field r key in
  C.repeat n (fun () ->
      let s = C.string_field r "p" in
      match Prefix.of_string s with
      | p -> p
      | exception Invalid_argument _ ->
        C.parse_error 0 (Printf.sprintf "invalid prefix %S" s))

let emit_runtime w r =
  C.section w "runtime";
  C.int w "duration" r.duration;
  C.int w "arrived_at" r.arrived_at;
  C.int w "drop_priority" r.drop_priority;
  C.int w "active_epochs" r.active_epochs;
  C.int w "satisfied_epochs" r.satisfied_epochs;
  C.float w "accuracy_sum" r.accuracy_sum;
  C.int w "poor_streak" r.poor_streak;
  C.int w "last_alloc_total" r.last_alloc_total;
  C.int w "staleness" r.staleness;
  C.int w "fresh_rules" (Switch_id.Map.cardinal r.fresh_rules);
  Switch_id.Map.iter
    (fun sw set ->
      C.int w "sw" sw;
      emit_prefix_list w "rules" (Prefix.Set.elements set))
    r.fresh_rules;
  C.int w "last_install_counts" (Switch_id.Map.cardinal r.last_install_counts);
  Switch_id.Map.iter
    (fun sw n ->
      C.int w "sw" sw;
      C.int w "installs" n)
    r.last_install_counts;
  C.int w "stale_counters" (Switch_id.Map.cardinal r.stale_counters);
  Switch_id.Map.iter
    (fun sw pairs ->
      C.int w "sw" sw;
      C.int w "pairs" (List.length pairs);
      List.iter
        (fun (p, v) ->
          C.string w "p" (Prefix.to_string p);
          C.float w "v" v)
        pairs)
    r.stale_counters;
  Task.emit w r.task;
  Source.emit w r.source;
  Ground_truth.emit w r.ground_truth

(* [last_report] is deliberately not serialized: it is a UI convenience the
   control loop never reads, and a restored controller reports afresh on
   its first tick. *)
let parse_runtime r =
  C.expect_section r "runtime";
  let duration = C.int_field r "duration" in
  let arrived_at = C.int_field r "arrived_at" in
  let drop_priority = C.int_field r "drop_priority" in
  let active_epochs = C.int_field r "active_epochs" in
  let satisfied_epochs = C.int_field r "satisfied_epochs" in
  let accuracy_sum = C.float_field r "accuracy_sum" in
  let poor_streak = C.int_field r "poor_streak" in
  let last_alloc_total = C.int_field r "last_alloc_total" in
  let staleness = C.int_field r "staleness" in
  let fresh_rules =
    let n = C.int_field r "fresh_rules" in
    C.repeat n (fun () ->
        let sw = C.int_field r "sw" in
        (sw, Prefix.Set.of_list (parse_prefix_list r "rules")))
    |> List.fold_left (fun acc (sw, set) -> Switch_id.Map.add sw set acc) Switch_id.Map.empty
  in
  let last_install_counts =
    let n = C.int_field r "last_install_counts" in
    C.repeat n (fun () ->
        let sw = C.int_field r "sw" in
        (sw, C.int_field r "installs"))
    |> List.fold_left (fun acc (sw, n) -> Switch_id.Map.add sw n acc) Switch_id.Map.empty
  in
  let stale_counters =
    let n = C.int_field r "stale_counters" in
    C.repeat n (fun () ->
        let sw = C.int_field r "sw" in
        let pairs =
          C.repeat (C.int_field r "pairs") (fun () ->
              let s = C.string_field r "p" in
              let p =
                match Prefix.of_string s with
                | p -> p
                | exception Invalid_argument _ ->
                  C.parse_error 0 (Printf.sprintf "invalid prefix %S" s)
              in
              (p, C.float_field r "v"))
        in
        (sw, pairs))
    |> List.fold_left (fun acc (sw, pairs) -> Switch_id.Map.add sw pairs acc) Switch_id.Map.empty
  in
  let task = Task.parse r in
  let source = Source.parse r in
  let ground_truth = Ground_truth.parse r ~spec:(Task.spec task) in
  {
    task;
    source;
    ground_truth;
    duration;
    arrived_at;
    drop_priority;
    active_epochs;
    satisfied_epochs;
    accuracy_sum;
    poor_streak;
    last_alloc_total;
    last_report = None;
    fresh_rules;
    last_install_counts;
    stale_counters;
    staleness;
  }

let outcome_to_string = function
  | Metrics.Completed -> "completed"
  | Metrics.Dropped -> "dropped"
  | Metrics.Rejected -> "rejected"

let outcome_of_string = function
  | "completed" -> Some Metrics.Completed
  | "dropped" -> Some Metrics.Dropped
  | "rejected" -> Some Metrics.Rejected
  | _ -> None

let emit_records w records =
  C.int w "records" (List.length records);
  List.iter
    (fun (rec_ : Metrics.record) ->
      C.section w "record";
      C.int w "task_id" rec_.Metrics.task_id;
      C.string w "kind" (Task_spec.kind_to_string rec_.Metrics.kind);
      C.string w "outcome" (outcome_to_string rec_.Metrics.outcome);
      C.int w "arrived_at" rec_.Metrics.arrived_at;
      C.int w "ended_at" rec_.Metrics.ended_at;
      C.int w "active_epochs" rec_.Metrics.active_epochs;
      C.float w "satisfaction" rec_.Metrics.satisfaction;
      C.float w "mean_accuracy" rec_.Metrics.mean_accuracy)
    records

let parse_records r =
  let n = C.int_field r "records" in
  C.repeat n (fun () ->
      C.expect_section r "record";
      let task_id = C.int_field r "task_id" in
      let kind =
        let s = C.string_field r "kind" in
        match Task_spec.kind_of_string s with
        | Some k -> k
        | None -> C.parse_error 0 (Printf.sprintf "unknown task kind %S" s)
      in
      let outcome =
        let s = C.string_field r "outcome" in
        match outcome_of_string s with
        | Some o -> o
        | None -> C.parse_error 0 (Printf.sprintf "unknown outcome %S" s)
      in
      let arrived_at = C.int_field r "arrived_at" in
      let ended_at = C.int_field r "ended_at" in
      let active_epochs = C.int_field r "active_epochs" in
      let satisfaction = C.float_field r "satisfaction" in
      let mean_accuracy = C.float_field r "mean_accuracy" in
      { Metrics.task_id; kind; outcome; arrived_at; ended_at; active_epochs; satisfaction;
        mean_accuracy })

let emit_rob w (rob : Metrics.robustness) =
  C.section w "robustness";
  C.int w "crashes" rob.Metrics.crashes;
  C.int w "recoveries" rob.Metrics.recoveries;
  C.int w "switch_down_epochs" rob.Metrics.switch_down_epochs;
  C.int w "fetch_timeouts" rob.Metrics.fetch_timeouts;
  C.int w "fetch_retries" rob.Metrics.fetch_retries;
  C.int w "fetch_failures" rob.Metrics.fetch_failures;
  C.int w "stale_epochs" rob.Metrics.stale_epochs;
  C.int w "counters_lost" rob.Metrics.counters_lost;
  C.int w "install_failures" rob.Metrics.install_failures;
  C.int w "recovery_reinstalls" rob.Metrics.recovery_reinstalls;
  C.int w "controller_crashes" rob.Metrics.controller_crashes;
  C.int w "reconcile_removed" rob.Metrics.reconcile_removed;
  C.int w "reconcile_installed" rob.Metrics.reconcile_installed;
  C.int w "invariant_violations" rob.Metrics.invariant_violations;
  C.int w "partitions" rob.Metrics.partitions;
  C.int w "partition_epochs" rob.Metrics.partition_epochs;
  C.int w "breaker_opens" rob.Metrics.breaker_opens;
  C.int w "breaker_probes" rob.Metrics.breaker_probes;
  C.int w "breaker_skips" rob.Metrics.breaker_skips;
  C.int w "sheds" rob.Metrics.sheds

let parse_rob r : Metrics.robustness =
  C.expect_section r "robustness";
  let crashes = C.int_field r "crashes" in
  let recoveries = C.int_field r "recoveries" in
  let switch_down_epochs = C.int_field r "switch_down_epochs" in
  let fetch_timeouts = C.int_field r "fetch_timeouts" in
  let fetch_retries = C.int_field r "fetch_retries" in
  let fetch_failures = C.int_field r "fetch_failures" in
  let stale_epochs = C.int_field r "stale_epochs" in
  let counters_lost = C.int_field r "counters_lost" in
  let install_failures = C.int_field r "install_failures" in
  let recovery_reinstalls = C.int_field r "recovery_reinstalls" in
  let controller_crashes = C.int_field r "controller_crashes" in
  let reconcile_removed = C.int_field r "reconcile_removed" in
  let reconcile_installed = C.int_field r "reconcile_installed" in
  let invariant_violations = C.int_field r "invariant_violations" in
  let partitions = C.int_field r "partitions" in
  let partition_epochs = C.int_field r "partition_epochs" in
  let breaker_opens = C.int_field r "breaker_opens" in
  let breaker_probes = C.int_field r "breaker_probes" in
  let breaker_skips = C.int_field r "breaker_skips" in
  let sheds = C.int_field r "sheds" in
  { Metrics.crashes; recoveries; switch_down_epochs; fetch_timeouts; fetch_retries;
    fetch_failures; stale_epochs; counters_lost; install_failures; recovery_reinstalls;
    controller_crashes; reconcile_removed; reconcile_installed; invariant_violations;
    partitions; partition_epochs; breaker_opens; breaker_probes; breaker_skips; sheds }

let snapshot t =
  let w = C.writer () in
  C.section w "controller";
  C.int w "epoch" t.epoch;
  C.int w "next_id" t.next_id;
  C.int w "rules_installed" (Ctr.value t.rules_installed);
  C.int w "rules_fetched" (Ctr.value t.rules_fetched);
  emit_config w t.config;
  C.bool w "has_faults" (t.faults <> None);
  (match t.faults with Some fm -> Fault_model.emit w fm | None -> ());
  (* Breakers are live control-loop state: a failed-over controller must
     not re-probe switches the dead one had already tripped on. *)
  C.int w "breakers" (Array.length t.breakers);
  Array.iter (fun br -> Breaker.emit w br) t.breakers;
  C.int w "num_switches" (Array.length t.switches);
  Array.iter
    (fun sw ->
      C.section w "switch";
      C.int w "id" (Switch.id sw);
      C.int w "capacity" (Switch.capacity sw);
      let dump = Tcam.dump (Switch.tcam sw) in
      C.int w "owners" (List.length dump);
      List.iter
        (fun (owner, rules) ->
          C.int w "owner" owner;
          emit_prefix_list w "rules" rules)
        dump)
    t.switches;
  Allocator.emit w t.allocator;
  emit_rob w (robustness t);
  emit_records w t.records;
  let runtimes =
    List.sort runtime_order (Hashtbl.fold cons_runtime t.active [])
  in
  C.int w "runtimes" (List.length runtimes);
  List.iter (emit_runtime w) runtimes;
  C.seal ~magic:snapshot_magic (C.contents w)

let checkpoint t =
  let s = snapshot t in
  (* Everything the journal held is now folded into the snapshot; recovery
     only ever needs the suffix after the last checkpoint.  Flush first so
     a file-backed journal is never behind the sealed snapshot on disk,
     then drop the prefix. *)
  (match t.journal with
  | Some sink ->
    Journal.flush sink;
    Journal.truncate sink
  | None -> ());
  s

type parsed_snapshot = {
  p_epoch : int;
  p_next_id : int;
  p_rules_installed : int;
  p_rules_fetched : int;
  p_config : Config.t; (* faults spec filled in by the caller *)
  p_faults : Fault_model.t option;
  p_breakers : Breaker.t list;
  p_switches : (int * int * (int * Prefix.t list) list) list; (* id, capacity, dump *)
  p_allocator : Allocator.t;
  p_rob : Metrics.robustness;
  p_records : Metrics.record list; (* newest first *)
  p_runtimes : runtime list; (* task-id order *)
}

let parse_snapshot r =
  C.expect_section r "controller";
  let p_epoch = C.int_field r "epoch" in
  let p_next_id = C.int_field r "next_id" in
  let p_rules_installed = C.int_field r "rules_installed" in
  let p_rules_fetched = C.int_field r "rules_fetched" in
  let p_config = parse_config r in
  let p_faults = if C.bool_field r "has_faults" then Some (Fault_model.parse r) else None in
  let p_breakers = C.repeat (C.int_field r "breakers") (fun () -> Breaker.parse r) in
  let num_switches = C.int_field r "num_switches" in
  let p_switches =
    C.repeat num_switches (fun () ->
        C.expect_section r "switch";
        let id = C.int_field r "id" in
        let capacity = C.int_field r "capacity" in
        let owners = C.int_field r "owners" in
        let dump =
          C.repeat owners (fun () ->
              let owner = C.int_field r "owner" in
              (owner, parse_prefix_list r "rules"))
        in
        (id, capacity, dump))
  in
  let p_allocator = Allocator.parse r in
  let p_rob = parse_rob r in
  let p_records = parse_records r in
  let p_runtimes = C.repeat (C.int_field r "runtimes") (fun () -> parse_runtime r) in
  { p_epoch; p_next_id; p_rules_installed; p_rules_fetched; p_config; p_faults; p_breakers;
    p_switches; p_allocator; p_rob; p_records; p_runtimes }

let controller_of_parsed d ~switches ~planes ~faults ~tel =
  let active = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace active (Task.id r.task) r) d.p_runtimes;
  let registry =
    match tel with Some b -> Obs.Telemetry.registry b | None -> Obs.Registry.create ()
  in
  let clock = match tel with Some b -> Obs.Telemetry.clock b | None -> Obs.Clock.cpu in
  let rob = rob_of_registry registry in
  set_robustness rob d.p_rob;
  let rules_installed = Obs.Registry.counter registry "rules_installed" in
  Ctr.set rules_installed d.p_rules_installed;
  let rules_fetched = Obs.Registry.counter registry "rules_fetched" in
  Ctr.set rules_fetched d.p_rules_fetched;
  {
    config =
      { d.p_config with Config.faults = Option.map Fault_model.spec faults; telemetry = tel };
    allocator = d.p_allocator;
    switches;
    planes;
    faults;
    tel;
    registry;
    clock;
    active;
    epoch = d.p_epoch;
    next_id = d.p_next_id;
    records = d.p_records;
    delays = [];
    rules_installed;
    rules_fetched;
    fast_path_builds = Obs.Registry.counter registry "aggregate_sorted_fast_path";
    sort_fallbacks = Obs.Registry.counter registry "aggregate_sort_fallbacks";
    rob;
    recovered_now = Switch_id.Set.empty;
    journal = None;
    crash_pending = false;
    breakers = Array.of_list d.p_breakers;
    storm_pending = 0;
    arena = Arena.create ();
  }

let restore s =
  match C.unseal ~magic:snapshot_magic s with
  | Error e -> Error e
  | Ok body -> begin
    match
      let d = parse_snapshot (C.reader_of_string body) in
      let switches =
        Array.of_list
          (List.mapi
             (fun i (id, capacity, dump) ->
               if id <> i then
                 C.parse_error 0 (Printf.sprintf "switch ids not consecutive (%d at %d)" id i);
               let sw = Switch.create ~id ~capacity in
               List.iter
                 (fun (owner, rules) ->
                   List.iter
                     (fun p ->
                       match Tcam.install (Switch.tcam sw) ~owner p with
                       | Ok () -> ()
                       | Error (`Capacity | `Duplicate) ->
                         C.parse_error 0
                           (Printf.sprintf "snapshot rules overflow switch %d" id))
                     rules)
                 dump;
               Tcam.reset_stats (Switch.tcam sw);
               sw)
             d.p_switches)
      in
      let faults = d.p_faults in
      let planes = Array.map (fun sw -> Data_plane.create ?faults sw) switches in
      controller_of_parsed d ~switches ~planes ~faults ~tel:None
    with
    | t -> Ok t
    | exception C.Parse_error err -> Error (C.error_to_string err)
  end

(* ---- failover recovery ---- *)

type env = {
  env_switches : Switch.t array;
  env_planes : Data_plane.t array;
  env_faults : Fault_model.t option;
  env_tel : Obs.Telemetry.t option;
      (* the telemetry bundle outlives the controller too, so a failed-over
         run keeps appending to the same trace and counters *)
}

let environment t =
  { env_switches = t.switches; env_planes = t.planes; env_faults = t.faults; env_tel = t.tel }

let replay_entry t state_epochs entry =
  match entry with
  | Journal.Admit
      { epoch; task_id; spec; topology; duration; drop_priority; accuracy_history; global_only;
        source } ->
    let task =
      Task.create ~id:task_id ~spec ~topology ~accuracy_history
        ~accuracy_mode:(if global_only then Task.Global_only else Task.Overall)
        ()
    in
    let source = Source.parse (C.reader_of_string source) in
    let runtime =
      {
        task;
        source;
        ground_truth = Ground_truth.create spec;
        duration;
        arrived_at = epoch;
        drop_priority;
        active_epochs = 0;
        satisfied_epochs = 0;
        accuracy_sum = 0.0;
        poor_streak = 0;
        last_alloc_total = 0;
        last_report = None;
        fresh_rules = Switch_id.Map.empty;
        last_install_counts = Switch_id.Map.empty;
        stale_counters = Switch_id.Map.empty;
        staleness = 0;
      }
    in
    Allocator.force_admit t.allocator (view_of_runtime runtime);
    Hashtbl.replace t.active task_id runtime;
    Hashtbl.replace state_epochs task_id epoch;
    t.next_id <- max t.next_id (task_id + 1)
  | Journal.Reject { epoch; task_id; kind } ->
    t.records <-
      {
        Metrics.task_id;
        kind;
        outcome = Metrics.Rejected;
        arrived_at = epoch;
        ended_at = epoch;
        active_epochs = 0;
        satisfaction = 0.0;
        mean_accuracy = 0.0;
      }
      :: t.records;
    t.next_id <- max t.next_id (task_id + 1)
  | Journal.Alloc { task_id; switch; alloc; _ } ->
    Allocator.force_allocation t.allocator ~task_id ~switch ~alloc
  | Journal.Install _ | Journal.Delete _ | Journal.Purge _ ->
    (* Rule-level entries document what the dead controller did to the
       switches; reconciliation derives its expectations from the restored
       task state instead, so replay has nothing to apply here. *)
    ()
  | Journal.Switch_down _ -> Ctr.incr t.rob.crashes
  | Journal.Switch_up _ -> Ctr.incr t.rob.recoveries
  | Journal.Task_end
      { epoch; task_id; kind; cause; arrived_at; active_epochs; satisfaction; mean_accuracy } ->
    if Hashtbl.mem t.active task_id then begin
      Allocator.release t.allocator ~task_id;
      Hashtbl.remove t.active task_id;
      Hashtbl.remove state_epochs task_id
    end;
    let outcome =
      match cause with Journal.Completed -> Metrics.Completed | Journal.Dropped -> Metrics.Dropped
    in
    t.records <-
      { Metrics.task_id; kind; outcome; arrived_at; ended_at = epoch; active_epochs;
        satisfaction; mean_accuracy }
      :: t.records

let recover ~env ~snapshot ~journal ~at_epoch =
  match C.unseal ~magic:snapshot_magic snapshot with
  | Error e -> Error e
  | Ok body -> begin
    match
      let d = parse_snapshot (C.reader_of_string body) in
      if List.length d.p_switches <> Array.length env.env_switches then
        C.parse_error 0 "snapshot switch count does not match the live network";
      if at_epoch < d.p_epoch then C.parse_error 0 "recovery epoch precedes the checkpoint";
      (* The network outlives the controller: switches, data planes and the
         fault model keep their live state, and the snapshot's copies (taken
         at checkpoint time) are discarded after parsing. *)
      let t =
        controller_of_parsed d ~switches:env.env_switches ~planes:env.env_planes
          ~faults:env.env_faults ~tel:env.env_tel
      in
      (* Tasks restored from the snapshot carry state as of the checkpoint
         epoch; tasks replayed from the journal carry state as of their
         admission.  Either way the journal suffix brings membership,
         records and allocations current. *)
      let state_epochs = Hashtbl.create 16 in
      Hashtbl.iter (fun id _ -> Hashtbl.replace state_epochs id d.p_epoch) t.active;
      List.iter (fun e -> replay_entry t state_epochs e) journal;
      (* Traffic kept flowing while the controller was down: fast-forward
         each survivor's source by the epochs it missed.  Discarded epochs
         consume exactly the RNG draws the live run would have, so the
         traffic stream itself is unperturbed by the failover. *)
      Hashtbl.iter
        (fun id r ->
          let from = match Hashtbl.find_opt state_epochs id with Some e -> e | None -> at_epoch in
          for _ = from to at_epoch - 1 do
            ignore (Source.next r.source)
          done)
        t.active;
      (* Reconcile every reachable switch against the restored state: rules
         no restored task wants are strays, rules a restored task wants but
         the switch lost are missing.  A switch that is down now is wiped
         anyway and gets its rules back through the normal recovered-switch
         reinstall path. *)
      let runtimes =
        List.sort runtime_order (Hashtbl.fold cons_runtime t.active [])
      in
      t.epoch <- at_epoch;
      Array.iter
        (fun dp ->
          let sw_id = Data_plane.id dp in
          let expected =
            List.filter_map
              (fun r ->
                match Task.desired_rules r.task sw_id with
                | [] -> None
                | rules -> Some (Task.id r.task, rules))
              runtimes
          in
          match Data_plane.audit dp ~expected with
          | Ok { Data_plane.strays_removed; missing_installed } ->
            Ctr.add t.rob.reconcile_removed strays_removed;
            Ctr.add t.rob.reconcile_installed missing_installed;
            if strays_removed + missing_installed > 0 then
              trace_event t ~name:"reconcile"
                [ ("switch", Tr.Int sw_id); ("removed", Tr.Int strays_removed);
                  ("installed", Tr.Int missing_installed) ]
            (* A partitioned switch cannot be audited now; like a down
               switch it is reconciled when it becomes reachable again. *)
          | Error (`Down | `Unreachable) -> ())
        env.env_planes;
      Ctr.incr t.rob.controller_crashes;
      (* Break the replayed suffix down by entry kind, so the trace shows
         what the journal actually had to carry across the crash. *)
      let by_kind = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let k = Journal.entry_name e in
          Hashtbl.replace by_kind k (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k)))
        journal;
      let breakdown =
        Hashtbl.fold (fun k n acc -> (k, Tr.Int n) :: acc) by_kind []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      trace_event t ~name:"failover"
        ([ ("checkpoint_epoch", Tr.Int d.p_epoch);
           ("journal_entries", Tr.Int (List.length journal)) ]
        @ breakdown);
      Log.info (fun m ->
          m "epoch %d: controller recovered from checkpoint at epoch %d (+%d journal entries)"
            at_epoch d.p_epoch (List.length journal));
      t
    with
    | t -> Ok t
    | exception C.Parse_error err -> Error (C.error_to_string err)
  end
