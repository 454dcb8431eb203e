module Prefix = Dream_prefix.Prefix
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
  ignore (Monitor.fold_bottom_up monitor ~f:visit);
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
  { Accuracy.global = Accuracy.clamp global; locals }
