module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Source = Dream_traffic.Source
module Fault_model = Dream_fault.Fault_model
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Delay_model = Dream_switch.Delay_model
module Task = Dream_tasks.Task
module Task_spec = Dream_tasks.Task_spec
module Ground_truth = Dream_tasks.Ground_truth
module Divide_merge = Dream_tasks.Divide_merge
module Allocator = Dream_alloc.Allocator
module Task_view = Dream_alloc.Task_view
module Journal = Dream_recovery.Journal
module Invariant = Dream_recovery.Invariant
module C = Dream_util.Codec
module Obs = Dream_obs
module Ctr = Dream_obs.Registry.Counter
module Tr = Dream_obs.Trace

(* The interned profile spans of the tick's measured phases.  The trace
   spans, [phase_ms] and the profile all read them. *)
type spans = {
  epoch_span : Obs.Profile.span;
  fetch : Obs.Profile.span;  (** counter reads and their ingest, summed over tasks *)
  estimate : Obs.Profile.span;  (** reports + estimators, summed over tasks *)
  ground_truth : Obs.Profile.span;  (** real-accuracy scoring, summed over tasks *)
  allocate : Obs.Profile.span;  (** the allocation round *)
  configure : Obs.Profile.span;  (** divide-and-merge, summed over tasks *)
  rule_sync : Obs.Profile.span;  (** both rule-sync passes *)
  retire : Obs.Profile.span;  (** retirements and the invariant audit *)
}

let intern_spans profile =
  let span = Obs.Profile.intern profile in
  {
    epoch_span = span "epoch";
    fetch = span "epoch/fetch";
    estimate = span "epoch/estimate";
    ground_truth = span "epoch/ground_truth";
    allocate = span "epoch/allocate";
    configure = span "epoch/configure";
    rule_sync = span "epoch/rule_sync";
    retire = span "epoch/retire";
  }

(* Where a traced phase's epoch figure comes from: the delay model's
   simulated switch time, or the epoch cell of a measured span. *)
type source = Model_fetch | Model_save | Measured of Obs.Profile.span

type phase = { name : string; source : source; hist : Obs.Registry.Histogram.t Lazy.t }

(* The phases every traced epoch writes, modelled first, each with its
   [phase_ms] histogram, registered on first use. *)
let phases registry profile sp =
  let phase name source =
    { name; source;
      hist = lazy (Obs.Registry.histogram registry ~labels:[ ("phase", name) ] "phase_ms") }
  in
  let measured span = phase (Obs.Profile.path profile span) (Measured span) in
  [
    phase "model/fetch" Model_fetch; phase "model/save" Model_save; measured sp.epoch_span;
    measured sp.fetch; measured sp.estimate; measured sp.ground_truth; measured sp.allocate;
    measured sp.configure; measured sp.rule_sync; measured sp.retire;
  ]

(* The epoch's switch work as [price] found it, before retirement removes
   rules: what the modelled phases are priced from. *)
type priced = {
  mutable fetched : int;
  mutable installed : int;
  mutable removed : int;
  mutable touched : int;  (** switches that fetched or installed *)
}

type t = {
  config : Config.t;
  allocator : Allocator.t;
  switches : Switch.t array;
  faults : Fault_model.t option;
  tel : Obs.Telemetry.t option;
  registry : Obs.Registry.t; (* the bundle's, or a private one when [tel = None] *)
  profile : Obs.Profile.t; (* the bundle's, or a private wall-only one *)
  spans : spans;
  fetch : Fetch.t;
  rule_sync : Rule_sync.t;
  active : (int, Runtime.t) Hashtbl.t; (* by id; [finalize] retires in its order *)
  mutable live : Runtime.t array;
      (* the same tasks in id order, [live.(0 .. live_n - 1)]: ids only
         ascend, so an admission appends and a removal closes the gap *)
  mutable live_n : int;
  views : Task_view.table; (* the allocation round's input, refilled each round *)
  allocations : int array; (* one task's allocation per sub-filter bit, refilled per task *)
  pool : Runtime.pool; (* retired tasks' storage; never checkpointed *)
  workspace : Divide_merge.t; (* every task's configure scratch; never checkpointed *)
  mutable epoch : int;
  mutable next_id : int;
  mutable records : Metrics.record list;
  priced : priced; (* written only when a bundle is attached *)
  (* A traced tick's bookkeeping, kept at its grown size so that a warmed
     tick's tracing allocates nothing: the tasks observed this epoch in
     fetch order with each one's scored accuracy (tasks.csv's rows), and
     the round's snapshot, every live task's allocation per sub-filter bit
     at [i * Topology.max_switches_per_task]. *)
  mutable observed : Runtime.t array;
  mutable scored : float array;
  mutable observed_n : int;
  mutable before : int array;
  rules_installed : Ctr.t;
  rules_fetched : Ctr.t;
  (* Registry handles registered on first use, when a lookup by name
     would have registered them: a series nothing touched stays out of the
     export. *)
  tasks_admitted : Ctr.t Lazy.t;
  tasks_rejected : Ctr.t Lazy.t;
  tasks_dropped : Ctr.t Lazy.t;
  tasks_completed : Ctr.t Lazy.t;
  allocation_changes : Ctr.t Lazy.t;
  phases : phase list;
  rob : Metrics.Tallies.t;
  mutable journal : Journal.sink option;
  mutable crash_pending : bool;
      (* the fault model declared a controller crash this epoch; the driver
         decides whether to fail over (see {!recover}) *)
  mutable storm_pending : int;
      (* extra submissions the fault model's admission storm asks the
         driver to inject; read via {!storm_tasks_pending}, reset each tick *)
}

(* The one constructor: [create] starts from an empty controller, a
   restored or failed-over one from a checkpoint. *)
let make ~config ~allocator ~switches ~faults ~breakers ~runtimes ~epoch ~next_id ~records =
  let tel = config.Config.telemetry in
  let registry =
    match tel with Some b -> Obs.Telemetry.registry b | None -> Obs.Registry.create ()
  in
  let rob = Metrics.Tallies.of_registry registry in
  let profile =
    match Option.bind tel Obs.Telemetry.profile with
    | Some p -> p
    | None -> Obs.Profile.wall_only ()
  in
  let active = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace active (Runtime.id r) r) runtimes;
  let live =
    Array.of_list
      (List.sort
         (fun a b -> Int.compare (Runtime.id a) (Runtime.id b))
         (Hashtbl.fold (fun _ r acc -> r :: acc) active []))
  in
  let spans = intern_spans profile in
  {
    config;
    allocator;
    switches;
    faults;
    tel;
    registry;
    profile;
    spans;
    fetch =
      Fetch.create ~config ~switches ~breakers ~faults ~tallies:rob ~registry
        ~trace:(Option.map Obs.Telemetry.trace tel);
    rule_sync = Rule_sync.create ~switches ~install_budget:config.Config.install_budget ~tallies:rob;
    active;
    live;
    live_n = Array.length live;
    views =
      (let v = Task_view.table ~num_switches:(Array.length switches) in
       Task_view.reserve v (Array.length live);
       v);
    allocations = Array.make Topology.max_switches_per_task 0;
    pool = Runtime.pool ();
    workspace = Divide_merge.create ();
    epoch;
    next_id;
    records;
    priced = { fetched = 0; installed = 0; removed = 0; touched = 0 };
    observed = [||];
    scored = [||];
    observed_n = 0;
    before = [||];
    rules_installed = Obs.Registry.counter registry "rules_installed";
    rules_fetched = Obs.Registry.counter registry "rules_fetched";
    tasks_admitted = lazy (Obs.Registry.counter registry "tasks_admitted");
    tasks_rejected = lazy (Obs.Registry.counter registry "tasks_rejected");
    tasks_dropped = lazy (Obs.Registry.counter registry "tasks_dropped");
    tasks_completed = lazy (Obs.Registry.counter registry "tasks_completed");
    allocation_changes = lazy (Obs.Registry.counter registry "allocation_changes");
    phases = phases registry profile spans;
    rob;
    journal = None;
    crash_pending = false;
    storm_pending = 0;
  }

let create ~config ~strategy ~num_switches ~capacity =
  if num_switches <= 0 then
    invalid_arg
      (Printf.sprintf "Controller.create: num_switches must be positive, got %d" num_switches);
  if capacity <= 0 then
    invalid_arg (Printf.sprintf "Controller.create: capacity must be positive, got %d" capacity);
  Config.validate config;
  let faults =
    Option.map (fun spec -> Fault_model.create spec ~num_switches) config.Config.faults
  in
  let switches = Switch.network ?faults ~num_switches ~capacity () in
  let capacities = Array.to_list (Array.map (fun sw -> (Switch.id sw, capacity)) switches) in
  (* Self-describing trace: record the fault schedule the bundle ran under. *)
  (match (config.Config.telemetry, config.Config.faults) with
  | Some b, Some spec ->
    Tr.event (Obs.Telemetry.trace b) ~epoch:0 ~name:"fault_spec"
      [ ("spec", Tr.Str (Format.asprintf "%a" Fault_model.pp_spec spec)) ]
  | _ -> ());
  make ~config ~allocator:(Allocator.create strategy ~capacities) ~switches ~faults ~breakers:None
    ~runtimes:[] ~epoch:0 ~next_id:0 ~records:[]

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

let robustness t = Metrics.Tallies.read t.rob

(* ---- the live tasks in id order ---- *)

(* The first position in [lo, hi) whose task id is >= [id], or [hi]. *)
let rec rank t id lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if Runtime.id t.live.(mid) < id then rank t id (mid + 1) hi else rank t id lo mid
  end

let append_live t r =
  if t.live_n = Array.length t.live then begin
    let grown = Array.make (max 16 (2 * t.live_n)) r in
    Array.blit t.live 0 grown 0 t.live_n;
    t.live <- grown
  end;
  t.live.(t.live_n) <- r;
  t.live_n <- t.live_n + 1;
  Task_view.reserve t.views t.live_n

let remove_live t id =
  let i = rank t id 0 t.live_n in
  if i < t.live_n && Runtime.id t.live.(i) = id then begin
    Array.blit t.live (i + 1) t.live i (t.live_n - i - 1);
    t.live_n <- t.live_n - 1;
    (* The vacated slot lets go of the task it last held. *)
    if t.live_n > 0 then t.live.(t.live_n) <- t.live.(0)
  end

let live_list t = List.init t.live_n (Array.get t.live)

let active_tasks t = Hashtbl.length t.active

let active_task_ids t = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.active [])

let find t ~task_id f = Option.map f (Hashtbl.find_opt t.active task_id)

let last_report t ~task_id = Option.join (find t ~task_id (fun r -> Task.last_report r.Runtime.task))

let smoothed_accuracy t ~task_id = find t ~task_id (fun r -> Task.smoothed_global r.Runtime.task)

(* ---- write-ahead journal ---- *)

let set_journal t sink = t.journal <- sink

let journaling t = t.journal <> None

let jot t entry = match t.journal with None -> () | Some sink -> Journal.append sink entry

let controller_crash_pending t = t.crash_pending

let storm_tasks_pending t = t.storm_pending

let breaker_states t = Fetch.breaker_states t.fetch

let staleness_of t ~task_id = find t ~task_id (fun r -> r.Runtime.staleness)

let task_switches t ~task_id =
  find t ~task_id (fun r ->
      let task = r.Runtime.task in
      Switch_mask.fold (Task.topology task) (fun sw _ acc -> sw :: acc) (Task.switches task) [])

let reachable t sw = Fetch.reachable t.fetch sw

(* One definition of "the invariants hold right now", shared by the
   in-tick tally (config.check_invariants) and external oracles (the chaos
   harness), so they can never drift apart. *)
let check_invariants_now t =
  let tasks = List.init t.live_n (fun i -> t.live.(i).Runtime.task) in
  Invariant.check_all ~allocator:t.allocator ~switches:t.switches ~up:(reachable t) ~tasks

let pooled_storage t = Runtime.pooled t.pool [@@lint.allow "oracle hook: test/test_core.ml"]

let max_staleness t = Hashtbl.fold (fun _ r acc -> max acc r.Runtime.staleness) t.active 0

let submit t ~spec ~topology ~source ~duration =
  let id = t.next_id in
  t.next_id <- id + 1;
  let runtime =
    Runtime.create ~config:t.config ~pool:t.pool ~id ~spec ~topology ~source ~duration
      ~arrived_at:t.epoch
  in
  if Allocator.try_admit t.allocator (Runtime.view runtime) then begin
    (* Journal the admission outcome before the task takes effect.  The
       entry carries everything replay needs to re-apply it verbatim —
       including the traffic source serialized at this instant, which replay
       fast-forwards to the recovery epoch. *)
    if journaling t then begin
      jot t
        (Journal.Admit
           { epoch = t.epoch; task_id = id; spec; topology; duration;
             source = C.encode Source.codec source })
    end;
    Hashtbl.replace t.active id runtime;
    append_live t runtime;
    Ctr.incr (Lazy.force t.tasks_admitted);
    trace_event t ~name:"task_admit"
      [ ("task", Tr.Int id); ("kind", Tr.Str (Task_spec.kind_to_string spec.Task_spec.kind)) ];
    `Admitted id
  end
  else begin
    Runtime.recycle t.pool ~live:(Hashtbl.length t.active) runtime;
    jot t (Journal.Reject { epoch = t.epoch; task_id = id; kind = spec.Task_spec.kind });
    t.records <- Metrics.rejected ~task_id:id ~kind:spec.Task_spec.kind ~epoch:t.epoch :: t.records;
    Ctr.incr (Lazy.force t.tasks_rejected);
    trace_event t ~name:"task_reject"
      [ ("task", Tr.Int id); ("kind", Tr.Str (Task_spec.kind_to_string spec.Task_spec.kind)) ];
    `Rejected
  end

let finish_record (r : Runtime.t) ~outcome ~ended_at =
  let spec = Task.spec r.task in
  let active = r.active_epochs in
  {
    Metrics.task_id = Runtime.id r;
    kind = spec.Task_spec.kind;
    outcome;
    arrived_at = r.arrived_at;
    ended_at;
    active_epochs = active;
    satisfaction =
      (if active = 0 then 0.0 else float_of_int r.satisfied_epochs /. float_of_int active);
    mean_accuracy = (if active = 0 then 0.0 else r.scores.accuracy_sum /. float_of_int active);
  }

let remove_task t (r : Runtime.t) ~outcome =
  let id = Runtime.id r in
  let record = finish_record r ~outcome ~ended_at:t.epoch in
  (* Journal the end (with its final record fields) before it takes
     effect: if the controller dies in between, replay still retires the
     task and the audit removes its now-unowned rules. *)
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
         })
  end;
  Allocator.release t.allocator ~task_id:id;
  for sw = 0 to Array.length t.switches - 1 do
    ignore (Tcam.remove_owner (Switch.tcam t.switches.(sw)) ~owner:id)
  done;
  Runtime.recycle t.pool ~live:(Hashtbl.length t.active) r;
  Hashtbl.remove t.active id;
  remove_live t id;
  t.records <- record :: t.records;
  let kind = Task_spec.kind_to_string record.Metrics.kind in
  match outcome with
  | Metrics.Dropped ->
    Ctr.incr (Lazy.force t.tasks_dropped);
    trace_event t ~name:"task_drop"
      [ ("task", Tr.Int id); ("kind", Tr.Str kind);
        ("active_epochs", Tr.Int record.Metrics.active_epochs) ]
  | Metrics.Completed ->
    Ctr.incr (Lazy.force t.tasks_completed);
    trace_event t ~name:"task_complete"
      [ ("task", Tr.Int id); ("kind", Tr.Str kind);
        ("satisfaction", Tr.Float record.Metrics.satisfaction) ]
  | Metrics.Rejected -> ()

(* Advance the fault model one epoch: crashed switches lose their TCAM
   contents before anything is fetched, and recovered switches are marked
   for this tick's rule sync.  Returns the groups whose partition healed. *)
let advance_faults t =
  t.crash_pending <- false;
  t.storm_pending <- 0;
  match t.faults with
  | None -> []
  | Some fm ->
    let events = Fault_model.begin_epoch fm in
    List.iter
      (fun sw_id ->
        jot t (Journal.Switch_down { epoch = t.epoch; switch = sw_id });
        Switch.crash t.switches.(sw_id);
        Ctr.incr t.rob.crashes;
        trace_event t ~name:"switch_crash" [ ("switch", Tr.Int sw_id) ])
      events.Fault_model.crashed;
    List.iter
      (fun sw_id ->
        jot t (Journal.Switch_up { epoch = t.epoch; switch = sw_id });
        Rule_sync.mark_recovered t.rule_sync sw_id;
        trace_event t ~name:"switch_recover" [ ("switch", Tr.Int sw_id) ])
      events.Fault_model.recovered;
    Ctr.add t.rob.recoveries (List.length events.Fault_model.recovered);
    Ctr.add t.rob.switch_down_epochs (Fault_model.down_count fm);
    if events.Fault_model.controller_crashed then begin
      t.crash_pending <- true;
      trace_event t ~name:"controller_crash_scheduled" []
    end;
    (* Sustained adversity: partition windows and admission storms. *)
    List.iter
      (fun g -> trace_event t ~name:"partition" [ ("group", Tr.Int g) ])
      events.Fault_model.partitioned;
    List.iter
      (fun g -> trace_event t ~name:"partition_heal" [ ("group", Tr.Int g) ])
      events.Fault_model.healed;
    Ctr.add t.rob.partitions (List.length events.Fault_model.partitioned);
    Ctr.add t.rob.partition_epochs (Fault_model.partitioned_count fm);
    if events.Fault_model.storm_tasks > 0 then begin
      t.storm_pending <- events.Fault_model.storm_tasks;
      trace_event t ~name:"admission_storm" [ ("tasks", Tr.Int events.Fault_model.storm_tasks) ]
    end;
    events.Fault_model.healed

(* Quarantine: a down switch contributes nothing, so divide-and-merge must
   reconfigure the task's counters onto the healthy switches.  Zeroing the
   allocation is exactly that signal — {!Task.configure} deactivates the
   switch and merges its counters away. *)
let quarantine_allocations t topology =
  match t.faults with
  | None -> ()
  | Some fm ->
    for b = 0 to Topology.switches_per_task topology - 1 do
      if Fault_model.is_down fm (Topology.switch_of_bit topology b) then t.allocations.(b) <- 0
    done

(* ---- the epoch, phase by phase ---- *)

let begin_epoch t =
  Obs.Profile.start t.profile t.spans.epoch_span;
  let healed = advance_faults t in
  Fetch.begin_epoch t.fetch ~epoch:t.epoch ~healed;
  (* Reset per-epoch switch stats so the delay model prices this epoch. *)
  for sw = 0 to Array.length t.switches - 1 do
    Tcam.reset_stats (Switch.tcam t.switches.(sw))
  done

(* Fetch, report, estimate and score one task, and note it for tasks.csv
   when tracing. *)
let observe t (r : Runtime.t) =
  let data = Fetch.draw t.fetch r in
  Obs.Profile.start t.profile t.spans.fetch;
  let degraded = Fetch.read t.fetch r data in
  Obs.Profile.stop t.profile t.spans.fetch;
  Obs.Profile.start t.profile t.spans.estimate;
  let estimate = Task.estimate r.task ~epoch:t.epoch in
  Task.smooth r.task estimate;
  Obs.Profile.stop t.profile t.spans.estimate;
  Fetch.bound_staleness t.fetch r degraded;
  Obs.Profile.start t.profile t.spans.ground_truth;
  let truth = Ground_truth.evaluate r.ground_truth data (Task.items r.task) in
  Obs.Profile.stop t.profile t.spans.ground_truth;
  let spec = Task.spec r.task in
  let scored =
    if t.config.Config.prototype then estimate.(Dream_tasks.Accuracy.global)
    else truth.Ground_truth.real
  in
  r.active_epochs <- r.active_epochs + 1;
  r.scores.accuracy_sum <- r.scores.accuracy_sum +. scored;
  let satisfied = scored >= spec.Task_spec.accuracy_bound in
  if satisfied then r.satisfied_epochs <- r.satisfied_epochs + 1;
  if t.tel <> None then begin
    t.observed.(t.observed_n) <- r;
    t.scored.(t.observed_n) <- scored;
    t.observed_n <- t.observed_n + 1
  end

let rec observe_from t order i =
  if i < t.live_n then begin
    observe t order.(i);
    observe_from t order (i + 1)
  end

let fetch_and_estimate t =
  t.observed_n <- 0;
  if t.tel <> None && Array.length t.observed < t.live_n then begin
    let room = max t.live_n (2 * Array.length t.observed) in
    t.observed <- Array.make room t.live.(0);
    t.scored <- Array.make room 0.0
  end;
  observe_from t (Fetch.schedule t.fetch t.live t.live_n) 0

(* The task's allocation per sub-filter bit, into [t.allocations]. *)
let load_allocations t (r : Runtime.t) =
  let topology = Task.topology r.task and task_id = Runtime.id r in
  for b = 0 to Topology.switches_per_task topology - 1 do
    t.allocations.(b) <-
      Allocator.allocation_on t.allocator ~task_id (Topology.switch_of_bit topology b)
  done

let stride = Topology.max_switches_per_task

(* Every live task's allocation before a round, into [t.before]. *)
let snapshot_allocations t =
  let n = t.live_n * stride in
  if Array.length t.before < n then t.before <- Array.make (max n (2 * Array.length t.before)) 0;
  for i = 0 to t.live_n - 1 do
    let r = t.live.(i) in
    load_allocations t r;
    Array.blit t.allocations 0 t.before (i * stride)
      (Topology.switches_per_task (Task.topology r.task))
  done

(* Allocation entries that changed in a round, against the snapshot
   before it: churn made visible in the trace. *)
let allocation_changes t =
  let changes = ref 0 in
  for i = 0 to t.live_n - 1 do
    let r = t.live.(i) in
    load_allocations t r;
    for b = 0 to Topology.switches_per_task (Task.topology r.task) - 1 do
      if t.before.((i * stride) + b) <> t.allocations.(b) then incr changes
    done
  done;
  !changes

(* Allocation epoch: redistribute, then decide drops. *)
let allocate_and_drop t =
  if t.epoch mod t.config.Config.allocation_interval = 0 then begin
    (* Snapshot allocations before the round so tracing can price churn;
       taken outside the timed region. *)
    if t.tel <> None then snapshot_allocations t;
    Obs.Profile.start t.profile t.spans.allocate;
    t.views.Task_view.rows <- t.live_n;
    for i = 0 to t.live_n - 1 do
      Runtime.fill_row t.views i t.live.(i)
    done;
    Allocator.reallocate t.allocator t.views;
    Obs.Profile.stop t.profile t.spans.allocate;
    if t.tel <> None then begin
      let changes = allocation_changes t in
      if changes > 0 then begin
        Ctr.add (Lazy.force t.allocation_changes) changes;
        trace_event t ~name:"reallocate" [ ("changes", Tr.Int changes) ]
      end
    end;
    (* Journal the round's outcome — every task's full allocation map, not
       just deltas, so replay restores the allocator by forcing values
       rather than re-running the (state-dependent) adaptation logic. *)
    if journaling t then
      for i = 0 to t.live_n - 1 do
        let r = t.live.(i) in
        let task_id = Runtime.id r in
        Switch_mask.iter (Task.topology r.task)
          (fun switch _ ->
            jot t
              (Journal.Alloc
                 { epoch = t.epoch; task_id; switch;
                   alloc = Allocator.allocation_on t.allocator ~task_id switch }))
          (Task.switches r.task)
      done;
    if Allocator.supports_drop t.allocator then
      match
        Drop_policy.victim ~allocator:t.allocator ~threshold:t.config.Config.drop_threshold t.live
          t.live_n
      with
      | Some r -> remove_task t r ~outcome:Metrics.Dropped
      | None -> ()
  end

let configure t =
  for i = 0 to t.live_n - 1 do
    let r = t.live.(i) in
    load_allocations t r;
    quarantine_allocations t (Task.topology r.task);
    Obs.Profile.start t.profile t.spans.configure;
    Task.configure r.task ~workspace:t.workspace ~allocations:t.allocations;
    Obs.Profile.stop t.profile t.spans.configure
  done

(* Sync rules incrementally in two passes: all removals across tasks first,
   then installs — so one task's growth never transiently collides with
   space another task is vacating. *)
let sync_rules t =
  Obs.Profile.start t.profile t.spans.rule_sync;
  Rule_sync.sync t.rule_sync t.live t.live_n;
  Obs.Profile.stop t.profile t.spans.rule_sync;
  if t.tel <> None then
    for i = 0 to t.live_n - 1 do
      let r = t.live.(i) in
      let installed = Array.fold_left ( + ) 0 r.last_install_counts in
      let removed = Rule_sync.removed t.rule_sync i in
      (* Rule churn is divide-and-merge made visible: installs are
         drill-downs (or reinstalls), removals are merges and retreats. *)
      if installed + removed > 0 then
        trace_event t ~name:"rule_sync"
          [ ("task", Tr.Int (Runtime.id r)); ("installs", Tr.Int installed);
            ("removals", Tr.Int removed) ]
    done

(* Price the epoch's switch interactions: the TCAM stats summed over the
   switches from [i] on, and how many were touched.  A traced run keeps
   the sums for the modelled phases. *)
let rec price_from t i fetches installs removals touched =
  if i < Array.length t.switches then begin
    let tcam = Switch.tcam t.switches.(i) in
    let f = Tcam.fetches tcam and ins = Tcam.installs tcam in
    price_from t (i + 1) (fetches + f) (installs + ins)
      (removals + Tcam.removals tcam)
      (if f > 0 || ins > 0 then touched + 1 else touched)
  end
  else begin
    Ctr.add t.rules_installed installs;
    Ctr.add t.rules_fetched fetches;
    if t.tel <> None then begin
      t.priced.fetched <- fetches;
      t.priced.installed <- installs;
      t.priced.removed <- removals;
      t.priced.touched <- touched
    end
  end

let price t = price_from t 0 0 0 0 0

(* Retire the tasks from position [i] on that reached their duration. *)
let rec retire_from t i =
  if i < t.live_n then begin
    let r = t.live.(i) in
    if r.active_epochs >= r.duration then begin
      (* The removal closes the gap: the next task is at [i]. *)
      remove_task t r ~outcome:Metrics.Completed;
      retire_from t i
    end
    else retire_from t (i + 1)
  end

(* Retire tasks that reached their duration, then audit. *)
let retire t =
  Obs.Profile.start t.profile t.spans.retire;
  retire_from t 0;
  if t.config.Config.check_invariants then begin
    let violations = check_invariants_now t in
    Ctr.add t.rob.invariant_violations (List.length violations);
    match violations with
    | [] -> ()
    | first :: _ ->
      trace_event t ~name:"invariant_violation"
        [ ("count", Tr.Int (List.length violations));
          ("first", Tr.Str (Invariant.to_string first)) ]
  end;
  Obs.Profile.stop t.profile t.spans.retire

(* This epoch's figure of a phase: Fig 17's modelled switch time (fault
   ms included in the fetch), or a span's measured controller time. *)
let phase_ms t = function
  | Model_fetch ->
    let w = t.priced in
    Delay_model.fetch_ms ~rules:w.fetched ~switches:w.touched +. Fetch.fault_ms t.fetch
  | Model_save ->
    let w = t.priced in
    Delay_model.save_ms ~installs:w.installed ~removals:w.removed ~switches:w.touched
  | Measured span -> Obs.Profile.epoch_ms t.profile span

let record_telemetry t =
  match t.tel with
  | None -> ()
  | Some tel ->
    let tr = Obs.Telemetry.trace tel in
    let epoch = t.epoch in
    List.iter
      (fun { name; source; hist } ->
        let ms = phase_ms t source in
        Tr.span tr ~epoch ~phase:name ~ms;
        Obs.Registry.Histogram.observe (Lazy.force hist) ms)
      t.phases;
    Obs.Profile.observe_epoch t.registry t.profile t.spans.epoch_span;
    List.iter
      (fun ((r : Runtime.t), accuracy) ->
        let spec = Task.spec r.task and id = Runtime.id r in
        Obs.Telemetry.record_task tel
          { Obs.Telemetry.epoch; task = id; kind = Task_spec.kind_to_string spec.Task_spec.kind;
            accuracy; satisfied = accuracy >= spec.Task_spec.accuracy_bound;
            alloc = Allocator.total_of t.allocator ~task_id:id })
      (* task-id order regardless of the fetch schedule, so tasks.csv rows
         are stable across degraded-mode reorderings *)
      (List.sort
         (fun ((a : Runtime.t), _) ((b : Runtime.t), _) ->
           Int.compare (Runtime.id a) (Runtime.id b))
         (List.init t.observed_n (fun i -> (t.observed.(i), t.scored.(i)))));
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
      t.switches

(* The tasks a tick works on are the live ones: the drop and the
   retirements remove theirs as they go, so configure, rule sync and
   retire see exactly the survivors. *)
let[@hot] tick t =
  begin_epoch t;
  fetch_and_estimate t;
  allocate_and_drop t;
  configure t;
  sync_rules t;
  price t;
  retire t;
  Obs.Profile.stop t.profile t.spans.epoch_span;
  record_telemetry t;
  Obs.Profile.close_epoch t.profile;
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

let total_rules_installed t = Ctr.value t.rules_installed

let total_rules_fetched t = Ctr.value t.rules_fetched

(* ---- checkpoints ---- *)

let snapshot t =
  Checkpoint.emit
    {
      Checkpoint.epoch = t.epoch;
      next_id = t.next_id;
      rules_installed = Ctr.value t.rules_installed;
      rules_fetched = Ctr.value t.rules_fetched;
      config = t.config;
      faults = t.faults;
      breakers = Fetch.breakers t.fetch;
      switches = t.switches;
      allocator = t.allocator;
      robustness = robustness t;
      records = t.records;
      runtimes = live_list t;
    }

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

(* A controller resuming from [d] on the given network. *)
let of_checkpoint (d : Checkpoint.t) ~switches ~faults ~tel =
  let t =
    make
      ~config:{ d.config with Config.faults = Option.map Fault_model.spec faults; telemetry = tel }
      ~allocator:d.allocator ~switches ~faults ~breakers:(Some d.breakers) ~runtimes:d.runtimes
      ~epoch:d.epoch ~next_id:d.next_id ~records:d.records
  in
  Metrics.Tallies.set t.rob d.robustness;
  Ctr.set t.rules_installed d.rules_installed;
  Ctr.set t.rules_fetched d.rules_fetched;
  t

let restore s =
  Result.map
    (fun (d : Checkpoint.t) -> of_checkpoint d ~switches:d.switches ~faults:d.faults ~tel:None)
    (Checkpoint.parse s)

(* ---- failover recovery ---- *)

type env = {
  env_switches : Switch.t array;
  env_faults : Fault_model.t option;
  env_tel : Obs.Telemetry.t option;
      (* the telemetry bundle outlives the controller too, so a failed-over
         run keeps appending to the same trace and counters *)
}

let environment t =
  { env_switches = t.switches; env_faults = t.faults; env_tel = t.tel }

let recover ~env ~snapshot ~journal ~at_epoch =
  let ( let* ) = Result.bind in
  let* d = Checkpoint.parse snapshot in
  let* () =
    if Array.length d.switches <> Array.length env.env_switches then
      Error "snapshot switch count does not match the live network"
    else if at_epoch < d.epoch then Error "recovery epoch precedes the checkpoint"
    else Ok ()
  in
  let* replayed = Failover.replay d journal ~at_epoch in
  (* The network outlives the controller: the switches and the fault model
     keep their live state, and the snapshot's copies (taken at checkpoint
     time) are discarded. *)
  let t =
    of_checkpoint replayed ~switches:env.env_switches ~faults:env.env_faults ~tel:env.env_tel
  in
  Failover.reconcile ~switches:t.switches ~runtimes:replayed.runtimes ~tallies:t.rob
    ~trace:(Option.map Obs.Telemetry.trace t.tel) ~epoch:at_epoch;
  (* Break the replayed suffix down by entry kind, so the trace shows what
     the journal actually had to carry across the crash. *)
  let kinds = List.sort_uniq String.compare (List.map Journal.entry_name journal) in
  let count k = List.length (List.filter (fun e -> Journal.entry_name e = k) journal) in
  trace_event t ~name:"failover"
    ([ ("checkpoint_epoch", Tr.Int d.epoch); ("journal_entries", Tr.Int (List.length journal)) ]
    @ List.map (fun k -> (k, Tr.Int (count k))) kinds);
  Ok t
