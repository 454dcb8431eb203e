module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology
module Ewma = Dream_util.Ewma

type accuracy_mode = Overall | Global_only

type t = {
  id : int;
  spec : Task_spec.t;
  topology : Topology.t;
  monitor : Monitor.t;
  global_acc : Ewma.t;
  overall_acc : (Switch_id.t, Ewma.t) Hashtbl.t;
  switch_ids : Switch_id.t array; (* the monitor's switches, in order *)
  accuracy_history : float;
  accuracy_mode : accuracy_mode;
  mutable allocations : int Switch_id.Map.t;
}

let switch_ids monitor = Array.of_list (Switch_id.Set.elements (Monitor.switches monitor))

let create ~id ~spec ~topology ?(accuracy_history = 0.4) ?(accuracy_mode = Overall) () =
  let monitor = Monitor.create ~spec ~topology in
  let initial_allocations =
    Switch_id.Set.fold
      (fun sw acc -> Switch_id.Map.add sw 1 acc)
      (Monitor.switches monitor) Switch_id.Map.empty
  in
  {
    id;
    spec;
    topology;
    monitor;
    switch_ids = switch_ids monitor;
    global_acc = Ewma.create ~history:accuracy_history;
    overall_acc = Hashtbl.create 8;
    accuracy_history;
    accuracy_mode;
    allocations = initial_allocations;
  }

let id t = t.id
let spec t = t.spec
let monitor t = t.monitor
let topology t = t.topology
let switches t = Monitor.switches t.monitor
let allocations t = t.allocations

let desired_rules t sw = Monitor.rules_for t.monitor sw

let ingest_counters t readings = Monitor.ingest t.monitor readings

let overall_filter t sw =
  match Hashtbl.find_opt t.overall_acc sw with
  | Some f -> f
  | None ->
    let f = Ewma.create ~history:t.accuracy_history in
    Hashtbl.replace t.overall_acc sw f;
    f

let report t ~epoch detections =
  match t.spec.Task_spec.kind with
  | Task_spec.Heavy_hitter -> Hh.report t.monitor ~epoch
  | Task_spec.Hierarchical_heavy_hitter -> Hhh.report t.monitor ~epoch detections
  | Task_spec.Change_detection -> Cd.report t.monitor ~epoch

let estimate t detections =
  let allocations = t.allocations in
  match t.spec.Task_spec.kind with
  | Task_spec.Heavy_hitter -> Hh.estimate t.monitor ~allocations
  | Task_spec.Hierarchical_heavy_hitter -> Hhh.estimate t.monitor ~allocations detections
  | Task_spec.Change_detection ->
    let accuracy = Cd.estimate t.monitor ~allocations in
    Cd.finish_epoch t.monitor;
    accuracy

(* Fold a raw estimate into the smoothed accuracies the allocator reads. *)
let smooth t accuracy =
  ignore (Ewma.update t.global_acc accuracy.Accuracy.global);
  for i = 0 to Array.length t.switch_ids - 1 do
    let sw = t.switch_ids.(i) in
    let sample =
      match t.accuracy_mode with
      | Overall -> Accuracy.overall accuracy sw
      | Global_only -> accuracy.Accuracy.global
    in
    ignore (Ewma.update (overall_filter t sw) sample)
  done

(* HHH detection runs once; the report and the estimate share it. *)
let report_and_estimate t ~epoch =
  let detections =
    match t.spec.Task_spec.kind with
    | Task_spec.Hierarchical_heavy_hitter -> Hhh.detect t.monitor
    | Task_spec.Heavy_hitter | Task_spec.Change_detection -> []
  in
  let report = report t ~epoch detections in
  let accuracy = estimate t detections in
  smooth t accuracy;
  (report, accuracy)

let decay_accuracy t ?switch ~factor () =
  Ewma.scale t.global_acc factor;
  match switch with None -> () | Some sw -> Ewma.scale (overall_filter t sw) factor

let smoothed_global t = Ewma.value_or t.global_acc 1.0

let overall_accuracy t sw = Ewma.value_or (overall_filter t sw) 1.0

let configure t ~allocations =
  t.allocations <- allocations;
  Score.apply t.monitor;
  Monitor.configure t.monitor ~allocations

let counters_used t sw = Monitor.usage t.monitor sw

let emit w t =
  let module C = Dream_util.Codec in
  C.section w "task";
  C.int w "id" t.id;
  Task_spec.emit w t.spec;
  Topology.emit w t.topology;
  C.float w "accuracy_history" t.accuracy_history;
  C.string w "accuracy_mode"
    (match t.accuracy_mode with Overall -> "overall" | Global_only -> "global");
  Ewma.emit w t.global_acc;
  let overall =
    Hashtbl.fold (fun sw f acc -> (sw, f) :: acc) t.overall_acc []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  C.int w "overall_acc" (List.length overall);
  List.iter
    (fun (sw, f) ->
      C.int w "sw" sw;
      Ewma.emit w f)
    overall;
  C.int w "allocations" (Switch_id.Map.cardinal t.allocations);
  Switch_id.Map.iter
    (fun sw alloc ->
      C.int w "sw" sw;
      C.int w "alloc" alloc)
    t.allocations;
  Monitor.emit w t.monitor

let parse r =
  let module C = Dream_util.Codec in
  C.expect_section r "task";
  let id = C.int_field r "id" in
  let spec = Task_spec.parse r in
  let topology = Topology.parse r in
  let accuracy_history = C.float_field r "accuracy_history" in
  let accuracy_mode =
    match C.string_field r "accuracy_mode" with
    | "overall" -> Overall
    | "global" -> Global_only
    | m -> C.parse_error 0 (Printf.sprintf "unknown accuracy mode %S" m)
  in
  let global_acc = Ewma.parse r in
  let overall_acc = Hashtbl.create 8 in
  let n = C.int_field r "overall_acc" in
  ignore
    (C.repeat n (fun () ->
         let sw = C.int_field r "sw" in
         Hashtbl.replace overall_acc sw (Ewma.parse r)));
  let n = C.int_field r "allocations" in
  let allocations =
    C.repeat n (fun () ->
        let sw = C.int_field r "sw" in
        let alloc = C.int_field r "alloc" in
        (sw, alloc))
    |> List.fold_left (fun acc (sw, a) -> Switch_id.Map.add sw a acc) Switch_id.Map.empty
  in
  let monitor = Monitor.parse r ~spec ~topology in
  {
    id;
    spec;
    topology;
    monitor;
    switch_ids = switch_ids monitor;
    global_acc;
    overall_acc;
    accuracy_history;
    accuracy_mode;
    allocations;
  }
