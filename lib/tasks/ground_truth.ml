module Prefix = Dream_prefix.Prefix
module Aggregate = Dream_traffic.Aggregate
module Epoch_data = Dream_traffic.Epoch_data

type score = { mutable real : float }

(* Every column is an Items buffer in key order, reused across epochs. *)
type t = {
  spec : Task_spec.t;
  leaves : Items.t; (* this epoch's leaf keys and volumes under the filter *)
  truth : Items.t; (* this epoch's true items *)
  mutable means : Items.t; (* CD: leaf keys with history and their EWMA means *)
  mutable next : Items.t; (* the means being merged, swapped in after *)
  ret : float array; (* HHH walk: a node's unclaimed volume, by length *)
  score : score; (* the last [evaluate]'s, refilled by the next *)
}

(* The buffers are [storage]'s, with their room.  Only the CD means carry
   across epochs: the others are refilled from empty before each read. *)
let create ~(storage : Storage.t) spec =
  Items.clear storage.truth_means;
  {
    spec;
    leaves = storage.leaves;
    truth = storage.truth;
    means = storage.truth_means;
    next = storage.truth_next;
    ret = Array.make (Prefix.address_bits + 1) 0.0;
    score = { real = nan };
  }

(* The means column needs its keys to be distinct leaves under the
   filter, in ascending order. *)
let codec ~spec ~storage =
  let open Dream_util.Codec in
  let bad p why = refuse (Printf.sprintf "cd mean on %s: %s" (Prefix.to_string p) why) in
  let leaf =
    conv
      (fun p ->
        if not (Prefix.covers spec.Task_spec.filter p) then bad p "outside the task's filter";
        if Prefix.length p <> spec.Task_spec.leaf_length then bad p "not a leaf";
        Prefix.key p)
      Prefix.of_key (Prefix.codec "prefix")
  in
  let means t =
    List.init t.means.Items.n (fun i -> (t.means.Items.keys.(i), t.means.Items.mags.(i)))
  in
  section "ground_truth"
    (record
       (let+ entries = field (repeat "cd_means" (pair leaf (float "mean"))) means in
        let t = create ~storage spec in
        let means = t.means in
        List.iter
          (fun (key, m) ->
            let i = means.Items.n in
            if i > 0 && means.Items.keys.(i - 1) >= key then
              bad (Prefix.of_key key) "out of order or repeated";
            Items.reserve means (i + 1);
            means.Items.keys.(i) <- key;
            means.Items.mags.(i) <- m;
            means.Items.n <- i + 1)
          entries;
        t))

(* This epoch's volume per leaf under the filter, into [t.leaves]. *)
let fill_leaves t aggregate =
  let filter = Prefix.key t.spec.Task_spec.filter in
  let leaf_length = t.spec.Task_spec.leaf_length in
  Items.reserve t.leaves (Aggregate.count_leaves aggregate filter ~leaf_length);
  t.leaves.Items.n <-
    Aggregate.leaf_sums aggregate filter ~leaf_length ~keys:t.leaves.Items.keys
      ~vols:t.leaves.Items.mags

let[@inline] push (items : Items.t) key =
  if items.n = Array.length items.keys then Items.reserve items (items.n + 1);
  items.keys.(items.n) <- key;
  items.n <- items.n + 1

let heavy_hitters t aggregate =
  fill_leaves t aggregate;
  let threshold = t.spec.Task_spec.threshold in
  let leaves = t.leaves in
  for i = 0 to leaves.Items.n - 1 do
    if leaves.Items.mags.(i) > threshold then push t.truth leaves.Items.keys.(i)
  done

(* The node (bits, len), whose addresses are the aggregate's indices
   [lo, hi): its volume not claimed by true HHHs below goes to
   [t.ret.(len)], and a node whose unclaimed volume exceeds the threshold
   is a true HHH, moved before the descendants written since entering it.
   Subtrees whose total volume cannot hold an HHH are pruned.  A node
   splits its range between its children with one search, as
   {!Hhh.visit} splits the monitor's slots. *)
let rec hhh_walk t aggregate bits len lo hi =
  Aggregate.span_volume aggregate ~lo ~hi t.ret len;
  let threshold = t.spec.Task_spec.threshold in
  if not (t.ret.(len) <= threshold) then begin
    let key = Prefix.key_of ~bits ~length:len in
    if len >= t.spec.Task_spec.leaf_length || len >= Prefix.address_bits then begin
      push t.truth key;
      t.ret.(len) <- 0.0
    end
    else begin
      let start = t.truth.Items.n in
      let right = bits lor (1 lsl (Prefix.address_bits - 1 - len)) in
      let mid = Aggregate.split aggregate right ~lo ~hi in
      hhh_walk t aggregate bits (len + 1) lo mid;
      let left = t.ret.(len + 1) in
      hhh_walk t aggregate right (len + 1) mid hi;
      let unclaimed = left +. t.ret.(len + 1) in
      if unclaimed > threshold then begin
        push t.truth key;
        Items.rotate t.truth start;
        t.ret.(len) <- 0.0
      end
      else t.ret.(len) <- unclaimed
    end
  end

let hierarchical_heavy_hitters t aggregate =
  let filter = t.spec.Task_spec.filter and n = Aggregate.num_addresses aggregate in
  let lo = Aggregate.split aggregate (Prefix.first_address filter) ~lo:0 ~hi:n in
  let hi = Aggregate.split aggregate (Prefix.last_address filter + 1) ~lo ~hi:n in
  hhh_walk t aggregate (Prefix.bits filter) (Prefix.length filter) lo hi

(* One merge of the means column against this epoch's leaves: a change is
   a leaf whose volume (0 when it sent nothing) deviates from its mean
   (its volume, before any history) by more than the threshold.  The
   EWMA-updated means go to [t.next], except a mean that decayed below
   0.001 on a silent leaf, which is dropped.  [t.next] is reserved for the
   leaves (one that sent traffic is always kept) and grows for the means
   kept beside them: the two mostly share keys, so reserving for both
   would about double it. *)
let changes t aggregate =
  fill_leaves t aggregate;
  let threshold = t.spec.Task_spec.threshold in
  let history = Task_spec.cd_history in
  let leaves = t.leaves and means = t.means and next = t.next in
  Items.reserve next leaves.Items.n;
  next.Items.n <- 0;
  let i = ref 0 and j = ref 0 in
  while !i < means.Items.n || !j < leaves.Items.n do
    let mk = if !i < means.Items.n then means.Items.keys.(!i) else max_int in
    let lk = if !j < leaves.Items.n then leaves.Items.keys.(!j) else max_int in
    let key = if mk <= lk then mk else lk in
    let volume = if lk = key then leaves.Items.mags.(!j) else 0.0 in
    let mean = if mk = key then means.Items.mags.(!i) else volume in
    if Float.abs (volume -. mean) > threshold then push t.truth key;
    let mean' = (history *. mean) +. ((1.0 -. history) *. volume) in
    (* volumes are non-negative, so <= 0.0 is "sent nothing" without
       testing floats for exact equality *)
    if not (mean' < 0.001 && volume <= 0.0) then begin
      let n = next.Items.n in
      if n = Array.length next.Items.keys then Items.reserve next (n + 1);
      next.Items.keys.(n) <- key;
      next.Items.mags.(n) <- mean';
      next.Items.n <- n + 1
    end;
    if mk = key then incr i;
    if lk = key then incr j
  done;
  t.next <- means;
  t.means <- next

let[@inline] ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

let evaluate t epoch_data (reported : Items.t) =
  let aggregate = epoch_data.Epoch_data.combined in
  Items.clear t.truth;
  (match t.spec.Task_spec.kind with
  | Task_spec.Heavy_hitter -> heavy_hitters t aggregate
  | Task_spec.Hierarchical_heavy_hitter -> hierarchical_heavy_hitters t aggregate
  | Task_spec.Change_detection -> changes t aggregate);
  let hits = Items.common reported t.truth in
  t.score.real <-
    (match Task_spec.accuracy_metric t.spec with
    | `Recall -> ratio hits t.truth.Items.n
    | `Precision -> ratio hits reported.Items.n);
  t.score

(* One epoch's truth in a fresh column, off the per-epoch path. *)
let true_heavy_hitters spec aggregate =
  let t = create ~storage:(Storage.create ()) spec in
  heavy_hitters t aggregate;
  t.truth
