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
  { Accuracy.global = Accuracy.clamp global; locals }
