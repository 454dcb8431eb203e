module Prefix = Dream_prefix.Prefix
module Fault_model = Dream_fault.Fault_model
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Delay_model = Dream_switch.Delay_model
module Breaker = Dream_switch.Breaker
module Task = Dream_tasks.Task
module Task_spec = Dream_tasks.Task_spec
module Allocator = Dream_alloc.Allocator
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

let magic = "dream-checkpoint v4"

(* The delay model's costs, in the order a checkpoint lists them. *)
let delay_costs =
  Delay_model.
    [
      ("fetch_per_rule_ms", fetch_per_rule_ms);
      ("save_per_rule_ms", save_per_rule_ms);
      ("delete_per_rule_ms", delete_per_rule_ms);
      ("rtt_ms", rtt_ms);
    ]

let emit_config w (config : Config.t) =
  C.section w "config";
  C.int w "allocation_interval" config.Config.allocation_interval;
  C.int w "drop_threshold" config.Config.drop_threshold;
  C.float w "accuracy_history" Task.accuracy_history;
  C.float w "epoch_ms" Delay_model.epoch_ms;
  C.bool w "has_control_delay" config.Config.control_delay;
  if config.Config.control_delay then List.iter (fun (key, v) -> C.float w key v) delay_costs;
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
   its spec from there.  The EWMA history, the epoch length and the delay
   model's costs are constants: their lines must hold exactly the values
   [emit_config] writes. *)
let parse_config r : Config.t =
  C.expect_section r "config";
  let allocation_interval = C.int_field r "allocation_interval" in
  let drop_threshold = C.int_field r "drop_threshold" in
  C.constant C.float r "accuracy_history" Task.accuracy_history;
  C.constant C.float r "epoch_ms" Delay_model.epoch_ms;
  let control_delay = C.bool_field r "has_control_delay" in
  if control_delay then List.iter (fun (key, v) -> C.constant C.float r key v) delay_costs;
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
  let config =
    {
      Config.allocation_interval;
      drop_threshold;
      control_delay;
      score_satisfaction_with;
      accuracy_mode;
      install_budget;
      faults = None;
      degraded;
      check_invariants;
      telemetry = None;
    }
  in
  Config.validate config;
  config

let emit_switch w sw =
  C.section w "switch";
  C.int w "id" (Switch.id sw);
  C.int w "capacity" (Switch.capacity sw);
  let dump = Tcam.dump (Switch.tcam sw) in
  C.int w "owners" (List.length dump);
  List.iter
    (fun (owner, rules) ->
      C.int w "owner" owner;
      Runtime.emit_prefixes w "rules" rules)
    dump

(* A switch rebuilt from its dump, with zeroed update stats, driven by the
   checkpoint's fault model. *)
let parse_switch ?faults r =
  C.expect_section r "switch";
  let id = C.int_field r "id" in
  let sw = Switch.create ?faults ~id ~capacity:(C.int_field r "capacity") () in
  let owners = C.int_field r "owners" in
  ignore
    (C.repeat owners (fun () ->
         let owner = C.int_field r "owner" in
         List.iter
           (fun p ->
             match Tcam.install (Switch.tcam sw) ~owner (Prefix.key p) with
             | Ok () -> ()
             | Error `Capacity ->
               C.parse_error 0 (Printf.sprintf "snapshot rules overflow switch %d" id)
             | Error `Duplicate ->
               C.parse_error 0
                 (Printf.sprintf "switch %d holds rule %s of task %d twice" id
                    (Prefix.to_string p) owner))
           (Runtime.parse_prefixes r "rules")));
  Tcam.reset_stats (Switch.tcam sw);
  sw

let outcomes =
  [ ("completed", Metrics.Completed); ("dropped", Metrics.Dropped); ("rejected", Metrics.Rejected) ]

let emit_records w records =
  C.int w "records" (List.length records);
  List.iter
    (fun (rec_ : Metrics.record) ->
      C.section w "record";
      C.int w "task_id" rec_.Metrics.task_id;
      C.string w "kind" (Task_spec.kind_to_string rec_.Metrics.kind);
      C.string w "outcome" (fst (List.find (fun (_, o) -> o = rec_.Metrics.outcome) outcomes));
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
        match List.assoc_opt s outcomes with
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

let emit_robustness w (rob : Metrics.robustness) =
  C.section w "robustness";
  List.iter2 (C.int w) (Metrics.to_list Metrics.names) (Metrics.to_list rob)

let parse_robustness r : Metrics.robustness =
  C.expect_section r "robustness";
  Metrics.map
    (fun name ->
      let v = C.int_field r name in
      if v < 0 then C.parse_error 0 (Printf.sprintf "negative tally %s %d" name v);
      v)
    Metrics.names

let emit d =
  let w = C.writer () in
  C.section w "controller";
  C.int w "epoch" d.epoch;
  C.int w "next_id" d.next_id;
  C.int w "rules_installed" d.rules_installed;
  C.int w "rules_fetched" d.rules_fetched;
  emit_config w d.config;
  C.bool w "has_faults" (d.faults <> None);
  (match d.faults with Some fm -> Fault_model.emit w fm | None -> ());
  (* Breakers are live control-loop state: a failed-over controller must
     not re-probe switches the dead one had already tripped on. *)
  C.int w "breakers" (Array.length d.breakers);
  Array.iter (fun br -> Breaker.emit w br) d.breakers;
  C.int w "num_switches" (Array.length d.switches);
  Array.iter (emit_switch w) d.switches;
  Allocator.emit w d.allocator;
  emit_robustness w d.robustness;
  emit_records w d.records;
  C.int w "runtimes" (List.length d.runtimes);
  List.iter (Runtime.emit w) d.runtimes;
  C.seal ~magic (C.contents w)

let parse_body r =
  C.expect_section r "controller";
  let epoch = C.int_field r "epoch" in
  let next_id = C.int_field r "next_id" in
  let rules_installed = C.int_field r "rules_installed" in
  let rules_fetched = C.int_field r "rules_fetched" in
  let config = parse_config r in
  let faults = if C.bool_field r "has_faults" then Some (Fault_model.parse r) else None in
  let breakers = Array.of_list (C.repeat (C.int_field r "breakers") (fun () -> Breaker.parse r)) in
  let switches =
    Array.of_list (C.repeat (C.int_field r "num_switches") (fun () -> parse_switch ?faults r))
  in
  Array.iteri
    (fun i sw ->
      if Switch.id sw <> i then
        C.parse_error 0 (Printf.sprintf "switch ids not consecutive (%d at %d)" (Switch.id sw) i))
    switches;
  (* Fetch indexes the breakers by switch id: one per switch in degraded
     mode, none otherwise. *)
  let num_breakers = Array.length breakers and num_switches = Array.length switches in
  if num_breakers <> 0 && num_breakers <> num_switches then
    C.parse_error 0 (Printf.sprintf "%d breakers for %d switches" num_breakers num_switches);
  let allocator = Allocator.parse r in
  let robustness = parse_robustness r in
  let records = parse_records r in
  let runtimes = C.repeat (C.int_field r "runtimes") (fun () -> Runtime.parse r) in
  (* Only a running task can own rules: the controller purges a task's
     rules when it ends, and nothing would ever remove an orphan's. *)
  Array.iter
    (fun sw ->
      List.iter
        (fun (owner, _) ->
          if not (List.exists (fun rt -> Runtime.id rt = owner) runtimes) then
            C.parse_error 0
              (Printf.sprintf "switch %d holds rules of task %d, which is not running"
                 (Switch.id sw) owner))
        (Tcam.dump (Switch.tcam sw)))
    switches;
  { epoch; next_id; rules_installed; rules_fetched;
    config = { config with Config.faults = Option.map Fault_model.spec faults };
    faults; breakers; switches; allocator; robustness; records; runtimes }

let parse s =
  match C.unseal ~magic s with
  | Error e -> Error e
  | Ok body -> begin
    (* A good seal proves the body intact, not its values sane: the
       component parsers and constructors reject out-of-range values with
       [Invalid_argument]. *)
    match parse_body (C.reader_of_string body) with
    | d -> Ok d
    | exception C.Parse_error err -> Error (C.error_to_string err)
    | exception Invalid_argument msg -> Error ("invalid value: " ^ msg)
  end
