module Prefix = Dream_prefix.Prefix
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology

(* One task's detection state, kept across epochs.  The walk's
   accumulators are indexed by prefix length + 1 (so 0 .. 33): a node of
   length [len] sums its children's results at [len + 1] and adds its own
   to its parent's at [len].  A child's result is volume not claimed by
   detected HHHs at or below it, the over-approximated volume of those
   detections, and whether it holds any.  The walk reads floats only from
   here and the monitor's total column, so it passes none. *)
type t = {
  m : Monitor.t;
  items : Items.t;
  threshold : float;
  leaf_length : int;
  mutable totals : float array; (* the monitor's, re-read each epoch *)
  unclaimed : float array;
  over : float array;
  detected : bool array;
  could_hide : bool array;
      (* some child's unclaimed plus over-approximated volume exceeds the
         threshold: a true HHH could hide in it *)
  k : int; (* sub-filter bits *)
  accuracy : Accuracy.t; (* refilled by every [estimate] *)
  seen : int array; (* per bit: the detections seeing its switch *)
}

let create m items =
  if not items.Items.values then invalid_arg "Hhh.create: a buffer without values";
  let spec = Monitor.spec m and depth = Prefix.address_bits + 2 in
  let k = Topology.switches_per_task (Monitor.topology m) in
  {
    m;
    items;
    threshold = spec.Task_spec.threshold;
    leaf_length = spec.Task_spec.leaf_length;
    totals = [||];
    unclaimed = Array.make depth 0.0;
    over = Array.make depth 0.0;
    detected = Array.make depth false;
    could_hide = Array.make depth false;
    k;
    accuracy = Accuracy.create k;
    seen = Array.make k 0;
  }

(* [Float.max 0.0 (residual - threshold)] for an uncertain detection, 0
   for a confirmed one, without a call that would box. *)
let[@inline] over_approx w residual value =
  if value >= 1.0 then 0.0
  else begin
    let d = residual -. w.threshold in
    if d > 0.0 || d <> d then d else 0.0
  end

(* Add a node's result to its parent's sums, at [len]. *)
let[@inline] to_parent w len unclaimed over detected =
  w.unclaimed.(len) <- w.unclaimed.(len) +. unclaimed;
  w.over.(len) <- w.over.(len) +. over;
  w.detected.(len) <- w.detected.(len) || detected;
  w.could_hide.(len) <- w.could_hide.(len) || unclaimed +. over > w.threshold

(* Write a detection after the last item, then move it to [start], before
   the descendants the walk wrote since entering the node: the buffer
   stays in key order. *)
let[@inline] push w start key residual value =
  let items = w.items in
  let n = items.Items.n in
  if n = Array.length items.Items.keys then Items.reserve items (n + 1);
  items.Items.keys.(n) <- key;
  items.Items.mags.(n) <- residual;
  items.Items.vals.(n) <- value;
  items.Items.n <- n + 1;
  Items.rotate items start

(* Visit the trie node (bits, len) whose counters are slots [lo, hi),
   children before the node, left child first.  A counter on the node
   itself is a leaf: the counters partition the filter. *)
let rec visit w bits len lo hi =
  let key = Prefix.key_of ~bits ~length:len in
  if Monitor.key w.m lo = key then begin
    let residual = w.totals.(lo) in
    if residual > w.threshold then begin
      let value =
        if len >= w.leaf_length then 1.0 else if residual > 2.0 *. w.threshold then 0.0 else 0.5
      in
      push w w.items.Items.n key residual value;
      to_parent w len 0.0 (over_approx w residual value) true
    end
    else to_parent w len residual 0.0 false
  end
  else begin
    let c = len + 1 in
    w.unclaimed.(c) <- 0.0;
    w.over.(c) <- 0.0;
    w.detected.(c) <- false;
    w.could_hide.(c) <- false;
    let start = w.items.Items.n in
    if len < Prefix.address_bits then begin
      let right = bits lor (1 lsl (Prefix.address_bits - 1 - len)) in
      let mid = Monitor.bisect w.m right lo hi in
      if mid <> lo then visit w bits c lo mid;
      if mid = lo || mid <> hi then visit w right c mid hi
    end;
    let residual = w.unclaimed.(c) and child_over = w.over.(c) and below = w.detected.(c) in
    if residual > w.threshold then begin
      (* With no detection below, every descendant is monitored and under
         the threshold: confirmed.  Otherwise the over-approximated
         volume of descendant detections could hide a true HHH in a
         child; halve if so. *)
      let value = if below && w.could_hide.(c) then 0.5 else 1.0 in
      push w start key residual value;
      to_parent w len 0.0 (child_over +. over_approx w residual value) true
    end
    else to_parent w len residual child_over below
  end

let detect w =
  let filter = (Monitor.spec w.m).Task_spec.filter and n = Monitor.num_counters w.m in
  w.totals <- w.m.totals;
  Items.clear w.items;
  Items.reserve w.items (2 * n);
  visit w (Prefix.bits filter) (Prefix.length filter) 0 n

(* The global figure is a mean of values in {0, 0.5, 1}: their sum is
   exact and at most [n], so the quotient lies in [0, 1]. *)
let estimate w ~allocations =
  let monitor = w.m and items = w.items and accuracy = w.accuracy and seen = w.seen in
  let n = items.Items.n in
  accuracy.(Accuracy.global) <-
    (if n = 0 then 1.0
     else begin
       let sum = ref 0.0 in
       for i = 0 to n - 1 do
         sum := !sum +. items.Items.vals.(i)
       done;
       !sum /. float_of_int n
     end);
  let topology = Monitor.topology monitor in
  let bottlenecks = Monitor.bottlenecked monitor ~allocations in
  let switches = Monitor.switches monitor in
  (* Running sums over the detections, per switch: the local cells hold
     the value sum and [seen] the detections seeing the switch. *)
  for b = 0 to w.k - 1 do
    accuracy.(Accuracy.local b) <- 0.0;
    seen.(b) <- 0
  done;
  for i = 0 to n - 1 do
    let key = items.Items.keys.(i) in
    let mask =
      Topology.bits_mask topology ~bits:(Prefix.key_bits key) ~length:(Prefix.key_length key)
      land switches
    in
    for b = 0 to w.k - 1 do
      if Switch_mask.mem_bit b mask then begin
        (* Only bottleneck switches inherit the uncertain value; others
           are scored 1 (Section 5.3). *)
        let c = Accuracy.local b in
        accuracy.(c) <-
          (accuracy.(c) +. if Switch_mask.mem_bit b bottlenecks then items.Items.vals.(i) else 1.0);
        seen.(b) <- seen.(b) + 1
      end
    done
  done;
  for b = 0 to w.k - 1 do
    let c = Accuracy.local b in
    accuracy.(c) <- (if seen.(b) > 0 then accuracy.(c) /. float_of_int seen.(b) else 1.0)
  done;
  accuracy
