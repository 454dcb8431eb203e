module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Aggregate = Dream_traffic.Aggregate
module Epoch_data = Dream_traffic.Epoch_data
module Ewma = Dream_util.Ewma

type accuracy_mode = Overall | Global_only

(* The kind's report and estimator, writing into the task's item buffer. *)
type estimator = Exact of Recall_estimator.t | Hierarchical of Hhh.t

(* The storage's report buffer, emptied, and the kind's estimator over it;
   HHH detections keep a precision value per item. *)
let estimator_for (spec : Task_spec.t) monitor (storage : Storage.t) =
  let exact magnitude =
    let items = storage.report in
    Items.clear items;
    (items, Exact (Recall_estimator.create monitor magnitude items))
  in
  match spec.Task_spec.kind with
  | Task_spec.Heavy_hitter -> exact Recall_estimator.Volume
  | Task_spec.Change_detection -> exact Recall_estimator.Deviation
  | Task_spec.Hierarchical_heavy_hitter ->
    let items = storage.detections in
    Items.clear items;
    (items, Hierarchical (Hhh.create monitor items))

(* The history weight of the EWMAs smoothing the accuracies the allocator
   reads (the paper's alpha = 0.4). *)
let accuracy_history = 0.4

type t = {
  id : int;
  spec : Task_spec.t;
  topology : Topology.t;
  monitor : Monitor.t;
  global_acc : Ewma.t;
  overall_acc : Ewma.t array; (* per sub-filter bit *)
  mutable overall_used : Switch_mask.t;
      (* the bits whose filter was ever read or fed: the checkpoint lists
         only those *)
  accuracy_mode : accuracy_mode;
  allocations : int array; (* per sub-filter bit *)
  items : Items.t; (* the last report's items, refilled every epoch *)
  estimator : estimator;
  mutable reported_at : int; (* the epoch of [items], -1 before the first report *)
  storage : Storage.t; (* what the columns above came from and go back to *)
}

let create ~id ~spec ~topology ?(accuracy_mode = Overall) ~storage () =
  let monitor = Monitor.create ~spec ~topology ~storage in
  let switches = Monitor.switches monitor in
  let k = Topology.switches_per_task topology in
  let items, estimator = estimator_for spec monitor storage in
  {
    id;
    spec;
    topology;
    monitor;
    global_acc = Ewma.create ~history:accuracy_history;
    overall_acc = Array.init k (fun _ -> Ewma.create ~history:accuracy_history);
    overall_used = Switch_mask.empty;
    accuracy_mode;
    allocations = Array.init k (fun b -> if Switch_mask.mem_bit b switches then 1 else 0);
    items;
    estimator;
    reported_at = -1;
    storage;
  }

let release t =
  Monitor.release t.monitor t.storage;
  t.storage

let id t = t.id
let spec t = t.spec
let monitor t = t.monitor
let topology t = t.topology
let switches t = Monitor.switches t.monitor
let allocations t = t.allocations

(* Each switch's key run, answered by its aggregate as a TCAM column
   would be; the storage's buffer pair, grown to the counter count, holds
   any run. *)
let read_traffic t data =
  let m = t.monitor and s = t.storage in
  let n = Monitor.num_counters m in
  if Array.length s.read_keys < n then begin
    let len = max n (2 * Array.length s.read_keys) in
    s.read_keys <- Array.make len 0;
    s.read_vols <- Array.make len 0.0
  end;
  let keys = s.read_keys and vols = s.read_vols in
  Monitor.clear_readings m;
  Switch_mask.iter t.topology
    (fun sw _ ->
      let first = Monitor.rules_start m sw in
      let n = Monitor.rules_stop m sw first - first in
      for i = 0 to n - 1 do
        keys.(i) <- Monitor.key m (first + i)
      done;
      Aggregate.read_keys (Epoch_data.switch_view data sw) ~keys ~n vols;
      Monitor.ingest m sw ~keys ~vols n)
    (Monitor.switches m);
  Monitor.seal_readings m

let overall_filter t b =
  t.overall_used <- t.overall_used lor (1 lsl b);
  t.overall_acc.(b)

(* Fold a raw estimate into the smoothed accuracies the allocator reads. *)
let smooth t accuracy =
  ignore (Ewma.update t.global_acc accuracy.Accuracy.global);
  let switches = Monitor.switches t.monitor in
  for b = 0 to Array.length t.overall_acc - 1 do
    if Switch_mask.mem_bit b switches then begin
      let sample =
        match t.accuracy_mode with
        | Overall -> Accuracy.overall accuracy b
        | Global_only -> accuracy.Accuracy.global
      in
      ignore (Ewma.update (overall_filter t b) sample)
    end
  done

(* The report goes into [items]; HHH detection runs once, and the report
   and the estimate share it.  A CD task then folds the epoch's volumes
   into its counters' means. *)
let estimate t ~epoch =
  let allocations = t.allocations in
  let accuracy =
    match t.estimator with
    | Exact e ->
      Recall_estimator.report e;
      Recall_estimator.estimate e ~allocations
    | Hierarchical h ->
      Hhh.detect h;
      Hhh.estimate h ~allocations
  in
  if t.spec.Task_spec.kind = Task_spec.Change_detection then Monitor.update_means t.monitor;
  t.reported_at <- epoch;
  smooth t accuracy;
  accuracy

let items t = t.items

let last_report t =
  if t.reported_at < 0 then None
  else Some (Report.of_items ~kind:t.spec.Task_spec.kind ~epoch:t.reported_at t.items)

let decay_accuracy t ?bit ~factor () =
  Ewma.scale t.global_acc factor;
  match bit with None -> () | Some b -> Ewma.scale (overall_filter t b) factor

let smoothed_global t = Ewma.value_or t.global_acc 1.0

let configure t ~workspace ~allocations =
  Array.blit allocations 0 t.allocations 0 (Array.length t.allocations);
  Score.apply t.monitor;
  Divide_merge.configure workspace t.monitor ~allocations:t.allocations

let counters_used t b = Monitor.usage t.monitor b

let allocator_view t ~overall ~used ~pos ~num_switches =
  for sw = 0 to num_switches - 1 do
    match Topology.bit_of_switch t.topology sw with
    | -1 ->
      overall.(pos + sw) <- 1.0;
      used.(pos + sw) <- 0
    | b ->
      overall.(pos + sw) <- Ewma.value_or t.overall_acc.(b) 1.0;
      used.(pos + sw) <- Monitor.usage t.monitor b
  done

(* The (bit, value) pairs of the bits in [mask], in switch-id order. *)
let by_bit topology mask value =
  List.rev (Switch_mask.fold topology (fun _ b acc -> (b, value b) :: acc) mask [])

let codec ~storage =
  let open Dream_util.Codec in
  let acc = Ewma.codec ~history:accuracy_history in
  section "task"
    (record
       (let* id, spec, topology =
          let+ id = field (int "id") (fun t -> t.id)
          and+ spec = field Task_spec.codec (fun t -> t.spec)
          and+ topology = field Topology.codec (fun t -> t.topology) in
          (id, spec, topology)
        in
        let bit what =
          conv (Topology.parse_bit topology ~what) (Topology.switch_of_bit topology) (int "sw")
        in
        let+ accuracy_mode =
          field
            (enum ~what:"accuracy mode" "accuracy_mode"
               [ (Overall, "overall"); (Global_only, "global") ])
            (fun t -> t.accuracy_mode)
        and+ global_acc = field acc (fun t -> t.global_acc)
        and+ overall =
          field
            (repeat "overall_acc" (pair (bit "an overall accuracy") acc))
            (fun t -> by_bit topology t.overall_used (Array.get t.overall_acc))
        and+ allocated =
          field
            (repeat "allocations" (pair (bit "an allocation") (int "alloc")))
            (fun t -> by_bit topology (Monitor.switches t.monitor) (Array.get t.allocations))
        and+ monitor = field (Monitor.codec ~spec ~topology ~storage) (fun t -> t.monitor) in
        let k = Topology.switches_per_task topology in
        let overall_acc = Array.init k (fun _ -> Ewma.create ~history:accuracy_history) in
        List.iter (fun (b, e) -> overall_acc.(b) <- e) overall;
        let allocations = Array.make k 0 in
        List.iter (fun (b, a) -> allocations.(b) <- a) allocated;
        let items, estimator = estimator_for spec monitor storage in
        {
          id;
          spec;
          topology;
          monitor;
          global_acc;
          overall_acc;
          overall_used = List.fold_left (fun m (b, _) -> m lor (1 lsl b)) Switch_mask.empty overall;
          accuracy_mode;
          allocations;
          items;
          estimator;
          reported_at = -1;
          storage;
        }))
