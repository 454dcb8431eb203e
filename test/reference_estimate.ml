(* The list-based estimators the column buffers replaced, kept as the
   differential oracle for Dream_tasks.Hhh and Dream_tasks.Recall_estimator:
   reports as Report.item lists, HHH detections as records from a
   bottom-up fold over the naive trie (Reference_trie.fold_monitor) sorted
   by List.sort, magnitudes through closures.  Only the tests use it. *)

module Monitor = Monitor_views
module Task_spec = Dream_tasks.Task_spec
module Report = Dream_tasks.Report
module Accuracy = Dream_tasks.Accuracy

let clamp v = if v < 0.0 then 0.0 else if v > 1.0 then 1.0 else v

(* An estimate's column, as Accuracy lays it out. *)
let column ~global locals =
  let a = Accuracy.create (Array.length locals) in
  a.(Accuracy.global) <- clamp global;
  Array.iteri (fun b l -> a.(Accuracy.local b) <- l) locals;
  a

module Recall_estimator = struct
  module Switch_mask = Dream_traffic.Switch_mask

  let missed_bound ~wildcards ~magnitude ~threshold =
    if magnitude <= threshold then 0
    else begin
      let by_volume = int_of_float (Float.floor (magnitude /. threshold)) in
      let by_leaves = if wildcards >= 62 then max_int else 1 lsl wildcards in
      min by_volume by_leaves
    end

  (* One estimate's inputs and running counts, threaded through the counter
     walks as their accumulator. *)
  type tally = {
    monitor : Monitor.t;
    threshold : float;
    magnitude_total : Monitor.t -> int -> float;
    magnitude_on : Monitor.t -> int -> int -> float;
    bottlenecks : Switch_mask.t;
    mutable bit : int; (* the sub-filter bit a local walk counts for *)
    mutable detected : int;
    mutable missed : int;
  }

  let missed_under w i magnitude =
    missed_bound ~wildcards:(Monitor.wildcards w.monitor i) ~magnitude ~threshold:w.threshold

  (* Exact counters over the threshold are detected; every other counter
     bounds the items it may hide. *)
  let count_global i w =
    let m = w.monitor in
    if Monitor.is_exact m i then begin
      if w.magnitude_total m i > w.threshold then w.detected <- w.detected + 1
    end
    else w.missed <- w.missed + missed_under w i (w.magnitude_total m i);
    w

  (* The same on [w.bit]'s switch, from the counters that see it.  Missed
     items are attributed to bottlenecked switches only, when any is. *)
  let count_local i w =
    let m = w.monitor and b = w.bit in
    if Monitor.is_exact m i then begin
      if w.magnitude_total m i > w.threshold then w.detected <- w.detected + 1
    end
    else if w.bottlenecks = Switch_mask.empty || Switch_mask.mem_bit b w.bottlenecks then
      w.missed <- w.missed + missed_under w i (w.magnitude_on m i b);
    w

  let recall w =
    if w.detected + w.missed = 0 then 1.0
    else float_of_int w.detected /. float_of_int (w.detected + w.missed)

  let local monitor w b =
    w.bit <- b;
    w.detected <- 0;
    w.missed <- 0;
    recall (Monitor.fold_seeing count_local monitor b w)

  let estimate monitor ~allocations ~magnitude_total ~magnitude_on =
    let spec = Monitor.spec monitor in
    let w =
      {
        monitor;
        threshold = spec.Task_spec.threshold;
        magnitude_total;
        magnitude_on;
        bottlenecks = Monitor.bottlenecked monitor ~allocations;
        bit = 0;
        detected = 0;
        missed = 0;
      }
    in
    let global = recall (Monitor.fold count_global monitor w) in
    let switches = Monitor.switches monitor in
    let k = Dream_traffic.Topology.switches_per_task (Monitor.topology monitor) in
    let locals = Array.make k 1.0 in
    for b = 0 to Array.length locals - 1 do
      if Switch_mask.mem_bit b switches then locals.(b) <- local monitor w b
    done;
    column ~global locals
end

module Hh = struct
  (* An exact counter over the threshold is a heavy hitter. *)
  let add_detection monitor i items =
    let total = Monitor.total monitor i in
    if Monitor.is_exact monitor i && total > (Monitor.spec monitor).Task_spec.threshold then
      { Report.prefix = Monitor.prefix monitor i; magnitude = total } :: items
    else items

  let report monitor ~epoch =
    let spec = Monitor.spec monitor in
    { Report.kind = spec.Task_spec.kind; epoch; items = Monitor.fold (add_detection monitor) monitor [] }

  let estimate monitor ~allocations =
    Recall_estimator.estimate monitor ~allocations ~magnitude_total:Monitor.total
      ~magnitude_on:Monitor.volume_on
end

module Cd = struct
  (* An exact counter deviating from its mean by more than the threshold is a
     significant change. *)
  let add_detection monitor i items =
    let deviation = Monitor.cd_deviation monitor i in
    if Monitor.is_exact monitor i && deviation > (Monitor.spec monitor).Task_spec.threshold then
      { Report.prefix = Monitor.prefix monitor i; magnitude = deviation } :: items
    else items

  let report monitor ~epoch =
    let spec = Monitor.spec monitor in
    { Report.kind = spec.Task_spec.kind; epoch; items = Monitor.fold (add_detection monitor) monitor [] }

  (* Per-switch means are not tracked; apportion the total deviation by the
     switch's share of the counter's volume. *)
  let deviation_on monitor i b =
    let deviation = Monitor.cd_deviation monitor i in
    let total = Monitor.total monitor i in
    if total <= 0.0 then begin
      let n = Monitor.switch_count monitor i in
      if n = 0 then 0.0 else deviation /. float_of_int n
    end
    else deviation *. (Monitor.volume_on monitor i b /. total)

  let estimate monitor ~allocations =
    Recall_estimator.estimate monitor ~allocations ~magnitude_total:Monitor.cd_deviation
      ~magnitude_on:deviation_on

  let finish_epoch monitor = Monitor.update_means monitor
end

module Hhh = struct
  module Prefix = Prefix_ops
  module Switch_mask = Dream_traffic.Switch_mask
  module Topology = Dream_traffic.Topology

  type detection = { prefix : Prefix.t; residual : float; value : float }

  (* Bottom-up state per trie node. *)
  type node_result = {
    unclaimed : float; (* volume not claimed by detected descendant HHHs *)
    over_sum : float; (* total over-approximation of detected HHHs below *)
    has_detected : bool;
  }

  let detect monitor =
    let spec = Monitor.spec monitor in
    let threshold = spec.Task_spec.threshold in
    let leaf_length = spec.Task_spec.leaf_length in
    let detections = ref [] in
    let over_approx residual value = if value >= 1.0 then 0.0 else Float.max 0.0 (residual -. threshold) in
    let visit prefix slot (children : node_result list) =
      if slot >= 0 then begin
        (* Monitored counter: a trie leaf under the partition invariant. *)
        let residual = Monitor.total monitor slot in
        if residual > threshold then begin
          let v =
            if Prefix.length prefix >= leaf_length then 1.0
            else if residual > 2.0 *. threshold then 0.0
            else 0.5
          in
          detections := { prefix; residual; value = v } :: !detections;
          { unclaimed = 0.0; over_sum = over_approx residual v; has_detected = true }
        end
        else { unclaimed = residual; over_sum = 0.0; has_detected = false }
      end
      else begin
        let residual = List.fold_left (fun acc r -> acc +. r.unclaimed) 0.0 children in
        let child_over = List.fold_left (fun acc r -> acc +. r.over_sum) 0.0 children in
        let has_detected_below = List.exists (fun r -> r.has_detected) children in
        if residual > threshold then begin
          let v =
            if not has_detected_below then
              (* All descendants monitored and below threshold: confirmed. *)
              1.0
            else begin
              (* The over-approximated volume of descendant detections could
                 hide a true HHH in one of the children; halve if so. *)
              let child_could_be_hhh =
                List.exists (fun r -> r.unclaimed +. r.over_sum > threshold) children
              in
              if child_could_be_hhh then 0.5 else 1.0
            end
          in
          detections := { prefix; residual; value = v } :: !detections;
          { unclaimed = 0.0; over_sum = child_over +. over_approx residual v; has_detected = true }
        end
        else { unclaimed = residual; over_sum = child_over; has_detected = has_detected_below }
      end
    in
    ignore (Reference_trie.fold_monitor monitor ~f:visit);
    List.sort (fun a b -> Prefix.compare a.prefix b.prefix) !detections

  let item d = { Report.prefix = d.prefix; magnitude = d.residual }

  let report monitor ~epoch detections =
    { Report.kind = (Monitor.spec monitor).Task_spec.kind; epoch; items = List.map item detections }

  let estimate_recall monitor =
    let spec = Monitor.spec monitor in
    let threshold = spec.Task_spec.threshold in
    let leaf_length = spec.Task_spec.leaf_length in
    let detections = detect monitor in
    let detected = List.length detections in
    (* Every coarse (non-exact) detection may stand in for several finer
       HHHs; bound the hidden ones by its residual volume, as the HH
       estimator bounds missed heavy hitters by prefix volume. *)
    let missed =
      List.fold_left
        (fun acc d ->
          if Prefix.length d.prefix >= leaf_length then acc
          else begin
            let hidden = int_of_float (Float.floor (d.residual /. threshold)) - 1 in
            acc + max 0 hidden
          end)
        0 detections
    in
    if detected + missed = 0 then 1.0
    else float_of_int detected /. float_of_int (detected + missed)

  let estimate monitor ~allocations detections =
    let global =
      match detections with
      | [] -> 1.0
      | _ :: _ ->
        List.fold_left (fun acc d -> acc +. d.value) 0.0 detections
        /. float_of_int (List.length detections)
    in
    let topology = Monitor.topology monitor in
    let bottlenecks = Monitor.bottlenecked monitor ~allocations in
    let switches = Monitor.switches monitor in
    let locals = Array.make (Topology.switches_per_task topology) 1.0 in
    for b = 0 to Array.length locals - 1 do
      if Switch_mask.mem_bit b switches then begin
        let values =
          List.filter_map
            (fun d ->
              if Switch_mask.mem_bit b (Topology.prefix_mask topology d.prefix) then
                (* Only bottleneck switches inherit the uncertain value;
                   others are scored 1 (Section 5.3). *)
                Some (if Switch_mask.mem_bit b bottlenecks then d.value else 1.0)
              else None)
            detections
        in
        if values <> [] then
          locals.(b) <- List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
      end
    done;
    column ~global locals
end

(* Task.report_and_estimate as it was: one detection pass, then report and
   raw estimate (CD means folded in after). *)
let report_and_estimate monitor ~allocations ~epoch =
  match (Monitor.spec monitor).Task_spec.kind with
  | Task_spec.Heavy_hitter -> (Hh.report monitor ~epoch, Hh.estimate monitor ~allocations)
  | Task_spec.Hierarchical_heavy_hitter ->
    let detections = Hhh.detect monitor in
    (Hhh.report monitor ~epoch detections, Hhh.estimate monitor ~allocations detections)
  | Task_spec.Change_detection ->
    let report = Cd.report monitor ~epoch in
    let accuracy = Cd.estimate monitor ~allocations in
    Cd.finish_epoch monitor;
    (report, accuracy)
