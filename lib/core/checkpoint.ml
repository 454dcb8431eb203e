module Prefix = Dream_prefix.Prefix
module Fault_model = Dream_fault.Fault_model
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Delay_model = Dream_switch.Delay_model
module Breaker = Dream_switch.Breaker
module Task = Dream_tasks.Task
module Task_spec = Dream_tasks.Task_spec
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator
module Step_policy = Dream_alloc.Step_policy
module C = Dream_util.Codec

type t = {
  epoch : int;
  next_id : int;
  rules_installed : int;
  rules_fetched : int;
  config : Config.t;
  faults : Fault_model.t option;
  breakers : Breaker.t array;
  switches : Switch.t array;
  allocator : Allocator.t;
  robustness : Metrics.robustness;
  records : Metrics.record list;
  runtimes : Runtime.t list;
}

let magic = "dream-checkpoint v5"

(* Every constant of the build, once and in a fixed order, whatever the
   config or strategy: the state sections after it hold none of them, and
   a document written with any other value is refused here, before any
   state is read.  A float must hold the same bits. *)
let build_codec =
  let open C in
  let f key v = constant (float key) v and i key v = constant (int key) v in
  let step = Dream_allocator.step_params in
  let constants =
    [
      f "epoch_ms" Delay_model.epoch_ms;
      f "fetch_per_rule_ms" Delay_model.fetch_per_rule_ms;
      f "save_per_rule_ms" Delay_model.save_per_rule_ms;
      f "delete_per_rule_ms" Delay_model.delete_per_rule_ms;
      f "rtt_ms" Delay_model.rtt_ms;
      f "accuracy_history" Task.accuracy_history;
      f "cd_history" Task_spec.cd_history;
      i "breaker_threshold" Breaker.failure_threshold;
      i "breaker_cooldown" Breaker.cooldown_epochs;
      i "shed_max_staleness" Fetch.shed_max_staleness;
      f "mean_downtime" Fault_model.mean_downtime;
      f "stale_decay" Fault_model.stale_decay;
      f "retry_budget_fraction" Fault_model.retry_budget_fraction;
      i "partition_groups" Fault_model.partition_groups;
      i "storm_size" Fault_model.storm_size;
      f "hysteresis" Dream_allocator.hysteresis;
      f "factor" step.Step_policy.factor;
      i "addend" step.Step_policy.addend;
      i "min_step" step.Step_policy.min_step;
      i "max_step" step.Step_policy.max_step;
      i "initial_step" Dream_allocator.initial_step;
      i "min_allocation" Dream_allocator.min_allocation;
    ]
  in
  section "build" (conv ignore (fun () -> List.map ignore constants) (all constants))

(* The fault spec is not part of this section: the live fault model (RNG
   streams and all) is serialized separately, and the restored config gets
   its spec from there. *)
let config_codec =
  let open C in
  let flag name ~yes ~no = conv (fun b -> if b then yes else no) (fun v -> v = yes) (bool name) in
  let degraded =
    conv
      (fun deadline_fraction -> { Config.deadline_fraction })
      (fun d -> d.Config.deadline_fraction)
      (float "deadline_fraction")
  in
  section "config"
    (record
       (let+ allocation_interval =
          field (int "allocation_interval") (fun c -> c.Config.allocation_interval)
        and+ drop_threshold =
          field
            (conv
               (fun n ->
                 if n < 1 then refuse (Printf.sprintf "drop_threshold must be >= 1, got %d" n);
                 n)
               Fun.id (int "drop_threshold"))
            (fun c -> c.Config.drop_threshold)
        and+ prototype = field (bool "prototype") (fun c -> c.Config.prototype)
        and+ accuracy_mode =
          field
            (flag "accuracy_overall" ~yes:Task.Overall ~no:Task.Global_only)
            (fun c -> c.Config.accuracy_mode)
        and+ install_budget =
          field (option "install_budget" (int "install_budget")) (fun c -> c.Config.install_budget)
        and+ degraded = field (option "degraded" degraded) (fun c -> c.Config.degraded) in
        let config =
          {
            Config.allocation_interval;
            drop_threshold;
            prototype;
            accuracy_mode;
            install_budget;
            faults = None;
            degraded;
            telemetry = None;
          }
        in
        Config.validate config;
        config))

(* A switch rebuilt from its dump, with zeroed update stats, driven by the
   checkpoint's fault model. *)
let switch_codec ?faults () =
  let open C in
  let owner = pair (int "owner") (repeat "rules" (Prefix.codec "p")) in
  section "switch"
    (record
       (let+ id = field (int "id") Switch.id
        and+ capacity = field (int "capacity") Switch.capacity
        and+ owners = field (repeat "owners" owner) (fun sw -> Tcam.dump (Switch.tcam sw)) in
        let sw = Switch.create ?faults ~id ~capacity () in
        List.iter
          (fun (owner, rules) ->
            List.iter
              (fun p ->
                match Tcam.install (Switch.tcam sw) ~owner (Prefix.key p) with
                | Ok () -> ()
                | Error `Capacity -> refuse (Printf.sprintf "snapshot rules overflow switch %d" id)
                | Error `Duplicate ->
                  refuse
                    (Printf.sprintf "switch %d holds rule %s of task %d twice" id
                       (Prefix.to_string p) owner))
              rules)
          owners;
        Tcam.reset_stats (Switch.tcam sw);
        sw))

(* Breakers are live control-loop state: a failed-over controller must not
   re-probe switches the dead one had already tripped on. *)
let network_codec ?faults () =
  let open C in
  let array key d = conv Array.of_list Array.to_list (repeat key d) in
  record
    (let+ breakers = field (array "breakers" Breaker.codec) fst
     and+ switches = field (array "num_switches" (switch_codec ?faults ())) snd in
     Array.iteri
       (fun i sw ->
         if Switch.id sw <> i then
           refuse (Printf.sprintf "switch ids not consecutive (%d at %d)" (Switch.id sw) i))
       switches;
     (* Fetch indexes the breakers by switch id: one per switch in degraded
        mode, none otherwise. *)
     let num_breakers = Array.length breakers and num_switches = Array.length switches in
     if num_breakers <> 0 && num_breakers <> num_switches then
       refuse (Printf.sprintf "%d breakers for %d switches" num_breakers num_switches);
     (breakers, switches))

let record_codec =
  let open C in
  section "record"
    (record
       (let+ task_id = field (int "task_id") (fun r -> r.Metrics.task_id)
        and+ kind = field Task_spec.kind_codec (fun r -> r.Metrics.kind)
        and+ outcome =
          field
            (enum ~what:"outcome" "outcome"
               [ (Metrics.Completed, "completed"); (Metrics.Dropped, "dropped");
                 (Metrics.Rejected, "rejected") ])
            (fun r -> r.Metrics.outcome)
        and+ arrived_at = field (int "arrived_at") (fun r -> r.Metrics.arrived_at)
        and+ ended_at = field (int "ended_at") (fun r -> r.Metrics.ended_at)
        and+ active_epochs = field (int "active_epochs") (fun r -> r.Metrics.active_epochs)
        and+ satisfaction = field (float "satisfaction") (fun r -> r.Metrics.satisfaction)
        and+ mean_accuracy = field (float "mean_accuracy") (fun r -> r.Metrics.mean_accuracy) in
        { Metrics.task_id; kind; outcome; arrived_at; ended_at; active_epochs; satisfaction;
          mean_accuracy }))

(* The tallies in declaration order, one line each. *)
let robustness_codec =
  let open C in
  let tally name =
    conv
      (fun v ->
        if v < 0 then refuse (Printf.sprintf "negative tally %s %d" name v);
        v)
      Fun.id (int name)
  in
  let of_list values =
    let rest = ref values in
    Metrics.map
      (fun _ ->
        match !rest with
        | v :: tl ->
          rest := tl;
          v
        | [] -> invalid_arg "Checkpoint: fewer values than tallies")
      Metrics.names
  in
  section "robustness"
    (conv of_list Metrics.to_list (all (List.map tally (Metrics.to_list Metrics.names))))

let controller_codec =
  let open C in
  (* The switches are driven by the checkpoint's fault model. *)
  let faults_and_network =
    record
      (let* faults = field (option "faults" Fault_model.codec) fst in
       let+ network = field (network_codec ?faults ()) snd in
       (faults, network))
  in
  section "controller"
    (record
       (let+ epoch = field (int "epoch") (fun d -> d.epoch)
        and+ next_id = field (int "next_id") (fun d -> d.next_id)
        and+ rules_installed = field (int "rules_installed") (fun d -> d.rules_installed)
        and+ rules_fetched = field (int "rules_fetched") (fun d -> d.rules_fetched)
        and+ config = field config_codec (fun d -> d.config)
        and+ faults, (breakers, switches) =
          field faults_and_network (fun d -> (d.faults, (d.breakers, d.switches)))
        and+ allocator = field Allocator.codec (fun d -> d.allocator)
        and+ robustness = field robustness_codec (fun d -> d.robustness)
        and+ records = field (repeat "records" record_codec) (fun d -> d.records)
        and+ runtimes = field (repeat "runtimes" Runtime.codec) (fun d -> d.runtimes) in
        (* Only a running task can own rules: the controller purges a task's
           rules when it ends, and nothing would ever remove an orphan's. *)
        Array.iter
          (fun sw ->
            List.iter
              (fun (owner, _) ->
                if not (List.exists (fun rt -> Runtime.id rt = owner) runtimes) then
                  refuse
                    (Printf.sprintf "switch %d holds rules of task %d, which is not running"
                       (Switch.id sw) owner))
              (Tcam.dump (Switch.tcam sw)))
          switches;
        { epoch; next_id; rules_installed; rules_fetched;
          config = { config with Config.faults = Option.map Fault_model.spec faults };
          faults; breakers; switches; allocator; robustness; records; runtimes }))

let codec =
  C.(record (let+ () = field build_codec ignore and+ d = field controller_codec Fun.id in d))

let emit d = C.seal ~magic (C.encode codec d)

let parse s =
  match C.unseal ~magic s with
  | Error e -> Error e
  | Ok body -> begin
    (* A good seal proves the body intact, not its values sane: the
       descriptions refuse malformed lines and cross-field mismatches, and
       the constructors reject out-of-range values with
       [Invalid_argument]. *)
    match C.decode codec body with
    | d -> Ok d
    | exception C.Parse_error err -> Error (C.error_to_string err)
    | exception Invalid_argument msg -> Error ("invalid value: " ^ msg)
  end
