(* A task's smoothed accuracies as Dream_tasks.Task kept them before its
   float column: one Reference_ewma filter per figure (the global, and each
   sub-filter bit's overall accuracy) and the bits ever read or fed, which
   the checkpoint lists.  The differential oracle for [Task.smooth] and
   [Task.decay_accuracy], read back through [Task.allocator_view],
   [Task.smoothed_global] and the accuracy lines of [Task.codec].  Only
   the tests use it. *)

module Ewma = Reference_ewma
module Accuracy = Dream_tasks.Accuracy
module Task = Dream_tasks.Task
module Topology = Dream_traffic.Topology
module Switch_mask = Dream_traffic.Switch_mask

type t = {
  topology : Topology.t;
  mode : Task.accuracy_mode;
  global_acc : Ewma.t;
  overall_acc : Ewma.t array; (* per sub-filter bit *)
  mutable used : Switch_mask.t;
}

let create ~topology ~mode =
  let history = Task.accuracy_history in
  {
    topology;
    mode;
    global_acc = Ewma.create ~history;
    overall_acc = Array.init (Topology.switches_per_task topology) (fun _ -> Ewma.create ~history);
    used = Switch_mask.empty;
  }

let overall_filter t b =
  t.used <- t.used lor (1 lsl b);
  t.overall_acc.(b)

(* Fold a raw estimate in, on the bits of [switches]; a bit's overall
   sample is [max global local]. *)
let smooth t ~switches (accuracy : Accuracy.t) =
  let global = accuracy.(Accuracy.global) in
  ignore (Ewma.update t.global_acc global);
  for b = 0 to Array.length t.overall_acc - 1 do
    if Switch_mask.mem_bit b switches then begin
      let sample =
        match t.mode with
        | Task.Overall -> Float.max global accuracy.(Accuracy.local b)
        | Task.Global_only -> global
      in
      ignore (Ewma.update (overall_filter t b) sample)
    end
  done

let decay t ~bit ~factor =
  Ewma.scale t.global_acc factor;
  Ewma.scale (overall_filter t bit) factor

let smoothed_global t = Ewma.value_or t.global_acc 1.0

(* [Task.allocator_view]'s accuracy column over [num_switches] switches. *)
let overall t ~num_switches =
  Array.init num_switches (fun sw ->
      match Topology.bit_of_switch t.topology sw with
      | -1 -> 1.0
      | b -> Ewma.value_or t.overall_acc.(b) 1.0)

(* [Task.codec]'s accuracy lines: the global filter, then the used bits'
   filters in switch-id order. *)
let text t =
  let module C = Dream_util.Codec in
  let acc = Ewma.codec ~history:Task.accuracy_history in
  let used =
    List.rev (Switch_mask.fold t.topology (fun sw b l -> (sw, t.overall_acc.(b)) :: l) t.used [])
  in
  C.encode acc t.global_acc ^ C.encode (C.repeat "overall_acc" (C.pair (C.int "sw") acc)) used
