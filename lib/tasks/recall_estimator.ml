module Switch_mask = Dream_traffic.Switch_mask

type magnitude = Volume | Deviation

let[@inline] missed_bound ~wildcards ~magnitude ~threshold =
  if magnitude <= threshold then 0
  else begin
    let by_volume = int_of_float (Float.floor (magnitude /. threshold)) in
    let by_leaves = if wildcards >= 62 then max_int else 1 lsl wildcards in
    min by_volume by_leaves
  end

(* One task's inputs, running counts and estimate, threaded through the
   counter walks as their accumulator and kept across epochs.  The columns
   are the monitor's own, re-read each epoch (a configure may grow them),
   so a magnitude is read without boxing. *)
type t = {
  monitor : Monitor.t;
  kind : magnitude;
  items : Items.t;
  threshold : float;
  k : int; (* sub-filters: the stride of [vols] *)
  mutable totals : float array;
  mutable means : float array;
  mutable vols : float array;
  mutable bottlenecks : Switch_mask.t;
  mutable bit : int; (* the sub-filter bit a local walk counts for *)
  mutable detected : int;
  mutable missed : int;
  accuracy : Accuracy.t; (* refilled by every [estimate] *)
}

let create monitor kind items =
  let k = Dream_traffic.Topology.switches_per_task (Monitor.topology monitor) in
  {
    monitor;
    kind;
    items;
    threshold = (Monitor.spec monitor).Task_spec.threshold;
    k;
    totals = [||];
    means = [||];
    vols = [||];
    bottlenecks = Switch_mask.empty;
    bit = 0;
    detected = 0;
    missed = 0;
    accuracy = Accuracy.create k;
  }

let read_columns w =
  w.totals <- w.monitor.totals;
  w.means <- w.monitor.means;
  w.vols <- w.monitor.vols

(* The counter's magnitude: its volume (HH), or [|total - mean|], 0 before
   any history (CD). *)
let[@inline] magnitude w i =
  let total = w.totals.(i) in
  match w.kind with
  | Volume -> total
  | Deviation -> Float.abs (total -. if Monitor.seeded w.monitor i then w.means.(i) else total)

let[@inline] volume_on w i b =
  if Monitor.has_volume w.monitor i b then w.vols.((i * w.k) + b) else 0.0

(* Its share on [b]'s switch.  Per-switch CD means are not tracked: the
   deviation is apportioned by the switch's share of the counter's
   volume. *)
let[@inline] magnitude_on w i b =
  match w.kind with
  | Volume -> volume_on w i b
  | Deviation ->
    let deviation = magnitude w i in
    let total = w.totals.(i) in
    if total <= 0.0 then begin
      let n = Monitor.switch_count w.monitor i in
      if n = 0 then 0.0 else deviation /. float_of_int n
    end
    else deviation *. (volume_on w i b /. total)

let report w =
  read_columns w;
  let items = w.items and n = Monitor.num_counters w.monitor in
  Items.reserve items n;
  items.Items.n <- 0;
  for i = 0 to n - 1 do
    let mag = magnitude w i in
    if Monitor.is_exact w.monitor i && mag > w.threshold then begin
      items.Items.keys.(items.Items.n) <- Monitor.key w.monitor i;
      items.Items.mags.(items.Items.n) <- mag;
      items.Items.n <- items.Items.n + 1
    end
  done

let[@inline] missed_under w i magnitude =
  missed_bound ~wildcards:(Monitor.wildcards w.monitor i) ~magnitude ~threshold:w.threshold

(* Exact counters over the threshold are detected; every other counter
   bounds the items it may hide. *)
let count_global i w =
  if Monitor.is_exact w.monitor i then begin
    if magnitude w i > w.threshold then w.detected <- w.detected + 1
  end
  else w.missed <- w.missed + missed_under w i (magnitude w i);
  w

(* The same on [w.bit]'s switch, from the counters that see it.  Missed
   items are attributed to bottlenecked switches only, when any is. *)
let count_local i w =
  let b = w.bit in
  if Monitor.is_exact w.monitor i then begin
    if magnitude w i > w.threshold then w.detected <- w.detected + 1
  end
  else if w.bottlenecks = Switch_mask.empty || Switch_mask.mem_bit b w.bottlenecks then
    w.missed <- w.missed + missed_under w i (magnitude_on w i b);
  w

(* In [0, 1] as computed: [detected <= detected + missed], and a
   correctly rounded quotient of two such non-negative floats is at most
   1. *)
let[@inline] recall w =
  if w.detected + w.missed = 0 then 1.0
  else float_of_int w.detected /. float_of_int (w.detected + w.missed)

let estimate w ~allocations =
  let monitor = w.monitor and accuracy = w.accuracy in
  read_columns w;
  w.bottlenecks <- Monitor.bottlenecked monitor ~allocations;
  w.detected <- 0;
  w.missed <- 0;
  accuracy.(Accuracy.global) <- recall (Monitor.fold count_global monitor w);
  let switches = Monitor.switches monitor in
  for b = 0 to w.k - 1 do
    accuracy.(Accuracy.local b) <-
      (if Switch_mask.mem_bit b switches then begin
         w.bit <- b;
         w.detected <- 0;
         w.missed <- 0;
         recall (Monitor.fold_seeing count_local monitor b w)
       end
       else 1.0)
  done;
  accuracy
