module Prefix = Dream_prefix.Prefix
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Ewma = Dream_util.Ewma

(* Float registers of the candidate build walk and the greedy.  An
   all-float record is stored flat, so writing a field boxes nothing. *)
type float_regs = {
  mutable ret_cost : float; (* summary of the node just visited: its cost *)
  mutable best_ratio : float; (* the greedy's best cost per sub-filter so far *)
  mutable class_ratio : float; (* ... and the best of the class [pick] is in *)
  mutable bound_acc : float; (* running maximum of [min_cost_bound] *)
  mutable cost : float; (* the last solve's cost: the picks' summed score *)
}

(* cover()'s candidate table, one per monitor and reused across builds.
   Slot [j] is one structural trie node above the counters, in the order of
   a left-first pre-order walk, so the node's subtree is the slot range
   [j, node_end.(j)).  It is a live candidate while [node_class.(j) >= 0],
   and a solve drops it by writing its id into [stamp.(j)].

   A build groups its candidates into classes, one per distinct T mask,
   each a list of its members in slot order threaded through [node_next].
   A class's members all gain a pick the same, so the greedy's choice in
   it is its member of least cost unless the solve dropped that member or
   the next cost up divides to the same ratio: [cls_min] caches the member
   and [cls_next] that next cost.

   Growable arrays: after the first few epochs a build allocates nothing. *)
type cover = {
  mutable slots : int; (* slots in use *)
  mutable node_key : int array; (* node prefix, as a Prefix.key *)
  mutable node_end : int array; (* one past the node's last descendant slot *)
  mutable node_cost : float array; (* total score of the counters below *)
  mutable node_class : int array; (* a candidate's class; -1 once not one *)
  mutable node_next : int array; (* the next member of its class, or -1 *)
  mutable stamp : int array; (* the last solve that dropped the slot *)
  mutable solve_id : int; (* the running solve's stamp *)
  mutable classes : int; (* classes of this build *)
  mutable cls_mask : int array; (* T: sub-filters a merge frees an entry on *)
  mutable cls_head : int array; (* the class's first member, or -1 *)
  mutable cls_min : int array; (* its first member of least cost; -1 none, -2 unknown *)
  mutable cls_next : float array; (* its least member cost above [cls_min]'s *)
  mutable cls_floor : float array; (* its least member cost at build *)
  mutable cls_of : int array; (* open addressing: T mask -> class + 1, or 0 *)
  gains : float array; (* [gains.(g)] is [float_of_int g], for g <= k *)
  cheapest : float array; (* per sub-filter: lowest candidate cost freeing it *)
  chosen : int array; (* the last solve's picks, in pick order *)
  mutable picks : int;
  mutable scans : int; (* candidate slots read by solves and repairs *)
  mutable built : bool; (* the table matches the current counters *)
  mutable cursor : int; (* build walk position: the next counter slot *)
  (* Registers the build walk returns a node's summary in, and the
     greedy's running best slot: no tuple per node or step. *)
  mutable ret_s : int;
  mutable ret_t : int;
  mutable ret_count : int;
  mutable best : int;
  mutable class_best : int;
  regs : float_regs;
}

(* The divide phase's max-heap on score, one per monitor and reused.  An
   entry is a score plus the key and stamp of the slot it was pushed for;
   the three arrays move together, in exactly the order Dream_util.Heap
   moves its elements, so equal scores pop in the same order. *)
type heap = {
  mutable h_score : float array;
  mutable h_key : int array;
  mutable h_stamp : int array;
  mutable h_size : int;
  mutable top_key : int; (* the last pop's entry *)
  mutable top_stamp : int;
}

(* The counters are one table of slots [0, n) in prefix order, stored as
   columns with nothing boxed.  They partition the filter, so the counters
   under any prefix form one contiguous run of slots, found by two
   bisects, and every merge or divide is one shift of each column (a
   memmove: no write barrier, no allocation).

   Int columns are [Bytes], 8 bytes a slot:
   - [keys]: the prefix packed as [first address lsl 6 lor length], so
     keys order like Prefix.compare;
   - [masks]: the S set, as Topology.prefix_mask (sub-filters with traffic
     under the prefix);
   - [flags]: [fresh_flag], [seeded_flag] (the CD mean has history) and
     one volume-presence bit per sub-filter ([present b]);
   - [stamps]: a number no other counter of this monitor was created
     with, which is how a divide-heap entry tells a live counter from one
     merged away and recreated on the same prefix.

   Float columns: [totals], [scores], [means] (the CD EWMA), and [vols],
   the volume matrix: slot [i]'s volume on sub-filter [b] is
   [vols.(i * k + b)], valid while [present b] is set.

   Sub-filter sets are Switch_mask bitmasks: bit [i] stands for
   sub-filter [i] of the topology and so for the switch it maps to
   (Topology.switch_of_bit). *)
type t = {
  spec : Task_spec.t;
  topology : Topology.t;
  k : int; (* sub-filters *)
  by_switch : int array; (* Topology.switch_order *)
  history : float; (* the CD mean's history weight, spec.cd_history *)
  mutable cap : int; (* slots allocated in every column *)
  mutable n : int; (* slots in use *)
  mutable keys : Bytes.t;
  mutable masks : Bytes.t;
  mutable flags : Bytes.t;
  mutable stamps : Bytes.t;
  mutable totals : float array;
  mutable scores : float array;
  mutable means : float array;
  mutable vols : float array;
  mutable next_stamp : int;
  switches : Switch_mask.t; (* every switch seeing the filter *)
  usage : int array; (* entries per sub-filter, kept incrementally *)
  alloc : int array; (* per sub-filter allocation of the running configure *)
  mutable active_mask : Switch_mask.t; (* sub-filters whose switch has a non-zero allocation *)
  cover : cover;
  heap : heap;
}

let fresh_flag = 1

let seeded_flag = 2

let[@inline] present b = 4 lsl b

let presence_mask k = ((1 lsl k) - 1) lsl 2

(* ---- the columns ---- *)

let[@inline] get col i = Int64.to_int (Bytes.get_int64_ne col (i lsl 3))

let[@inline] set col i v = Bytes.set_int64_ne col (i lsl 3) (Int64.of_int v)

let[@inline] bits_at t i = Prefix.key_bits (get t.keys i)

let[@inline] length_at t i = Prefix.key_length (get t.keys i)

let[@inline] last_at t i = Prefix.key_last (get t.keys i)

let[@inline] flag t i f = get t.flags i land f <> 0

(* Growable columns and scratch arrays are copied into a larger array on
   growth.  Int arrays are copied element by element: a store of an
   immediate needs no write barrier, where Array.blit would run one per
   element into a major-heap array. *)
let grown_bytes col n used =
  let b = Bytes.create n in
  Bytes.blit col 0 b 0 used;
  b

let grown_floats (a : float array) n used =
  let b = Array.make n 0.0 in
  Array.blit a 0 b 0 used;
  b

let grown_ints (a : int array) n used =
  let b = Array.make n 0 in
  for j = 0 to used - 1 do
    b.(j) <- a.(j)
  done;
  b

(* Copy slots [0, n) of every column into columns of [cap] slots. *)
let resize t cap =
  t.keys <- grown_bytes t.keys (cap lsl 3) (t.n lsl 3);
  t.masks <- grown_bytes t.masks (cap lsl 3) (t.n lsl 3);
  t.flags <- grown_bytes t.flags (cap lsl 3) (t.n lsl 3);
  t.stamps <- grown_bytes t.stamps (cap lsl 3) (t.n lsl 3);
  t.totals <- grown_floats t.totals cap t.n;
  t.scores <- grown_floats t.scores cap t.n;
  t.means <- grown_floats t.means cap t.n;
  t.vols <- grown_floats t.vols (cap * t.k) (t.n * t.k);
  t.cap <- cap

(* Replace slots [lo, hi) by [len] slots whose contents the caller then
   writes: one shift of the tail per column. *)
let shift t ~lo ~hi ~len =
  let n = t.n - (hi - lo) + len in
  if n > t.cap then resize t (max n (2 * t.cap));
  let tail = t.n - hi and dst = lo + len in
  if tail > 0 && dst <> hi then begin
    Bytes.blit t.keys (hi lsl 3) t.keys (dst lsl 3) (tail lsl 3);
    Bytes.blit t.masks (hi lsl 3) t.masks (dst lsl 3) (tail lsl 3);
    Bytes.blit t.flags (hi lsl 3) t.flags (dst lsl 3) (tail lsl 3);
    Bytes.blit t.stamps (hi lsl 3) t.stamps (dst lsl 3) (tail lsl 3);
    Array.blit t.totals hi t.totals dst tail;
    Array.blit t.scores hi t.scores dst tail;
    Array.blit t.means hi t.means dst tail;
    Array.blit t.vols (hi * t.k) t.vols (dst * t.k) (tail * t.k)
  end;
  t.n <- n

(* Write a new counter's prefix and flags into slot [i], with a zero total
   and a stamp of its own; the caller writes its score and mean (passing
   them here would box them). *)
let init_slot t i ~key ~flags =
  set t.keys i key;
  set t.masks i
    (Topology.bits_mask t.topology ~bits:(Prefix.key_bits key) ~length:(Prefix.key_length key));
  set t.flags i flags;
  set t.stamps i t.next_stamp;
  t.next_stamp <- t.next_stamp + 1;
  t.totals.(i) <- 0.0

(* [total]: the present volumes summed in ascending switch-id order, the
   order a per-switch map folds in, so the float is the same bit for bit. *)
let seal_total t i =
  let fl = get t.flags i in
  t.totals.(i) <- 0.0;
  for j = 0 to t.k - 1 do
    let b = t.by_switch.(j) in
    if fl land present b <> 0 then t.totals.(i) <- t.totals.(i) +. t.vols.((i * t.k) + b)
  done

(* The sub-filters a counter actually occupies: its traffic sub-filters
   whose switch the allocator has granted at least one entry on. *)
let[@inline] effective t i = get t.masks i land t.active_mask

let rec bump usage mask delta i =
  if mask lsr i <> 0 then begin
    if mask land (1 lsl i) <> 0 then usage.(i) <- usage.(i) + delta;
    bump usage mask delta (i + 1)
  end

let recompute_usage t =
  Array.fill t.usage 0 (Array.length t.usage) 0;
  for i = 0 to t.n - 1 do
    bump t.usage (effective t i) 1 0
  done

(* An empty table of [cap] slots. *)
let make ~spec ~topology ~active ~cap =
  let k = Topology.switches_per_task topology in
  let cap = max 1 cap in
  {
    spec;
    topology;
    k;
    by_switch = Topology.switch_order topology;
    history = spec.Task_spec.cd_history;
    cap;
    n = 0;
    keys = Bytes.create (cap lsl 3);
    masks = Bytes.create (cap lsl 3);
    flags = Bytes.create (cap lsl 3);
    stamps = Bytes.create (cap lsl 3);
    totals = Array.make cap 0.0;
    scores = Array.make cap 0.0;
    means = Array.make cap 0.0;
    vols = Array.make (cap * k) 0.0;
    next_stamp = 0;
    switches = Topology.prefix_mask topology spec.Task_spec.filter;
    usage = Array.make k 0;
    alloc = Array.make k 0;
    active_mask = active;
    cover =
      {
        slots = 0;
        node_key = [||];
        node_end = [||];
        node_cost = [||];
        node_class = [||];
        node_next = [||];
        stamp = [||];
        solve_id = 0;
        classes = 0;
        cls_mask = [||];
        cls_head = [||];
        cls_min = [||];
        cls_next = [||];
        cls_floor = [||];
        cls_of = [||];
        gains = Array.init (k + 1) float_of_int;
        cheapest = Array.make k Float.infinity;
        chosen = Array.make k 0;
        picks = 0;
        scans = 0;
        built = false;
        cursor = 0;
        ret_s = 0;
        ret_t = 0;
        ret_count = 0;
        best = -1;
        class_best = -1;
        regs = { ret_cost = 0.0; best_ratio = 0.0; class_ratio = 0.0; bound_acc = 0.0; cost = 0.0 };
      };
    heap =
      { h_score = [||]; h_key = [||]; h_stamp = [||]; h_size = 0; top_key = 0; top_stamp = 0 };
  }

let create ~spec ~topology =
  let filter = spec.Task_spec.filter in
  let t = make ~spec ~topology ~active:(Topology.prefix_mask topology filter) ~cap:16 in
  shift t ~lo:0 ~hi:0 ~len:1;
  init_slot t 0 ~key:(Prefix.key filter) ~flags:fresh_flag;
  t.scores.(0) <- 0.0;
  t.means.(0) <- 0.0;
  recompute_usage t;
  t

let spec t = t.spec

let topology t = t.topology

let num_counters t = t.n

(* ---- slot accessors ---- *)

let prefix t i = Prefix.of_key (get t.keys i)

let wildcards t i = t.spec.Task_spec.leaf_length - length_at t i

let is_exact t i = length_at t i >= t.spec.Task_spec.leaf_length

let switch_count t i = Switch_mask.cardinal (get t.masks i)

let total t i = t.totals.(i)

let score t i = t.scores.(i)

let set_score t i s = t.scores.(i) <- s

let fresh t i = flag t i fresh_flag

let volume_on t i b = if flag t i (present b) then t.vols.((i * t.k) + b) else 0.0

let volumes t i =
  let acc = ref [] in
  for j = t.k - 1 downto 0 do
    let b = t.by_switch.(j) in
    if flag t i (present b) then
      acc := (Topology.switch_of_bit t.topology b, t.vols.((i * t.k) + b)) :: !acc
  done;
  !acc

let mean t i =
  if flag t i seeded_flag then
    Some t.means.(i)
  else None

let totals t = t.totals

let scores t = t.scores

let means t = t.means

let seeded t i = flag t i seeded_flag

let vols t = t.vols

let has_volume t i b = flag t i (present b)

(* [|total - mean|], or 0 before any history. *)
let cd_deviation t i =
  let total = t.totals.(i) in
  Float.abs (total -. if flag t i seeded_flag then t.means.(i) else total)

(* Ewma.update's arithmetic, on the mean column. *)
let update_means t =
  let h = t.history in
  for i = 0 to t.n - 1 do
    let fl = get t.flags i in
    let x = t.totals.(i) in
    t.means.(i) <- (if fl land seeded_flag <> 0 then (h *. t.means.(i)) +. ((1.0 -. h) *. x) else x);
    set t.flags i (fl lor seeded_flag)
  done

(* The first slot in [lo, hi) whose counter starts at or after [addr], or
   [hi]: keys order by first address first. *)
let rec bisect t addr lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if bits_at t mid < addr then bisect t addr (mid + 1) hi else bisect t addr lo mid
  end

(* The slot holding exactly the prefix of [key], or -1. *)
let slot_of_key t key =
  let i = bisect t (Prefix.key_bits key) 0 t.n in
  if i < t.n && get t.keys i = key then i else -1

let find t p =
  let i = slot_of_key t (Prefix.key p) in
  if i < 0 then None else Some i

let rec fold_down f t ~first i acc = if i < first then acc else fold_down f t ~first (i - 1) (f i acc)

let fold f t acc = fold_down f t ~first:0 (t.n - 1) acc

(* A counter's S set holds a switch exactly when its prefix intersects that
   switch's sub-filter [b]: the counters intersecting its address range,
   one contiguous run of slots, [run_start t b] to [run_stop t b first]
   exclusive. *)
let run_start t b =
  let lo = Prefix.first_address (Topology.subfilter_of_bit t.topology b) in
  let i = bisect t lo 0 t.n in
  (* The counter holding [lo] may start before it. *)
  if i > 0 && last_at t (i - 1) >= lo then i - 1 else i

let run_stop t b first =
  bisect t (Prefix.last_address (Topology.subfilter_of_bit t.topology b) + 1) first t.n

let fold_seeing f t b acc =
  let first = run_start t b in
  fold_down f t ~first (run_stop t b first - 1) acc

let switches t = t.switches

let usage t b = t.usage.(b)

let active t = t.active_mask

(* The rules of a switch are the counters seeing it, one run of slots;
   none on a switch outside {!active}. *)
let rules_start t sw =
  let b = Topology.bit_of_switch t.topology sw in
  if b < 0 || not (Switch_mask.mem_bit b t.active_mask) then 0 else run_start t b

let rules_stop t sw first =
  let b = Topology.bit_of_switch t.topology sw in
  if b < 0 || not (Switch_mask.mem_bit b t.active_mask) then first else run_stop t b first

let key t i = get t.keys i

let clear_readings t =
  let keep = lnot (presence_mask t.k) in
  for i = 0 to t.n - 1 do
    set t.flags i (get t.flags i land keep)
  done

(* One switch's readings merged into the slots.  A TCAM answers in key
   order, so after one bisect seats the cursor it only moves forward; a
   reading behind it (never from a TCAM) re-seats it with another.
   Readings for prefixes no longer monitored are stale: dropped.  A later
   reading of a slot replaces an earlier one. *)
let rec advance t addr j = if j < t.n && bits_at t j < addr then advance t addr (j + 1) else j

(* Readings [i, n) merged from cursor [j] (-1 before the first bisect). *)
let rec ingest_from t b keys vols n i j =
  if i < n then begin
    let key = keys.(i) in
    let addr = Prefix.key_bits key in
    let j =
      if j < 0 then bisect t addr 0 t.n
      else if j > 0 && bits_at t (j - 1) >= addr then bisect t addr 0 j
      else advance t addr j
    in
    if j < t.n && get t.keys j = key then begin
      t.vols.((j * t.k) + b) <- vols.(i);
      set t.flags j (get t.flags j lor present b);
      ingest_from t b keys vols n (i + 1) (j + 1)
    end
    else ingest_from t b keys vols n (i + 1) j
  end

let ingest t sw ~keys ~vols n =
  let b = Topology.bit_of_switch t.topology sw in
  if b >= 0 then ingest_from t b keys vols n 0 (-1)

let seal_readings t =
  for i = 0 to t.n - 1 do
    seal_total t i;
    set t.flags i (get t.flags i land lnot fresh_flag)
  done

(* Sub-filters of [mask] where one more entry would exceed the allocation
   of the running configure. *)
let rec blocked t mask i acc =
  if mask lsr i = 0 then acc
  else if mask land (1 lsl i) <> 0 && t.usage.(i) + 1 > t.alloc.(i) then
    blocked t mask (i + 1) (acc lor (1 lsl i))
  else blocked t mask (i + 1) acc

(* Sub-filters holding more entries than the running configure allows. *)
let rec overloaded t i acc =
  if i = Array.length t.usage then acc
  else begin
    let used = t.usage.(i) in
    overloaded t (i + 1) (if used > 0 && used > t.alloc.(i) then acc lor (1 lsl i) else acc)
  end

let rec saturated t allocations i acc =
  if i = Array.length t.usage then acc
  else if t.active_mask land (1 lsl i) <> 0 && t.usage.(i) >= allocations.(i) then
    saturated t allocations (i + 1) (acc lor (1 lsl i))
  else saturated t allocations (i + 1) acc

let bottlenecked t ~allocations = saturated t allocations 0 0

(* ---- cover(): greedy weighted set cover over ancestor T sets ---- *)

module Cover = struct
  type candidates = t

  let grow (cv : cover) =
    let n = max 16 (2 * Array.length cv.node_key) and used = cv.slots in
    cv.node_key <- grown_ints cv.node_key n used;
    cv.node_end <- grown_ints cv.node_end n used;
    cv.node_cost <- grown_floats cv.node_cost n used;
    cv.node_class <- grown_ints cv.node_class n used;
    cv.node_next <- grown_ints cv.node_next n used;
    cv.stamp <- grown_ints cv.stamp n used

  let[@inline] hash (cv : cover) mask =
    let h = mask * 0x9E3779B1 in
    (h lxor (h lsr 17)) land (Array.length cv.cls_of - 1)

  (* The cell of [cls_of] holding the class of [mask], or the empty cell
     it goes in: linear probing from [h]. *)
  let rec probe (cv : cover) mask h =
    let c = cv.cls_of.(h) - 1 in
    if c < 0 || cv.cls_mask.(c) = mask then h
    else probe cv mask ((h + 1) land (Array.length cv.cls_of - 1))

  (* Room for twice the classes, [cls_of] kept at most half full. *)
  let grow_classes (cv : cover) =
    let n = max 16 (2 * Array.length cv.cls_mask) and used = cv.classes in
    cv.cls_mask <- grown_ints cv.cls_mask n used;
    cv.cls_head <- grown_ints cv.cls_head n used;
    cv.cls_min <- grown_ints cv.cls_min n used;
    cv.cls_next <- grown_floats cv.cls_next n used;
    cv.cls_floor <- grown_floats cv.cls_floor n used;
    cv.cls_of <- grown_ints cv.cls_of (2 * n) 0;
    for c = 0 to used - 1 do
      cv.cls_of.(probe cv cv.cls_mask.(c) (hash cv cv.cls_mask.(c))) <- c + 1
    done

  (* The class of T mask [mask], added if new. *)
  let class_of (cv : cover) mask =
    if cv.classes = Array.length cv.cls_mask then grow_classes cv;
    let h = probe cv mask (hash cv mask) in
    let c = cv.cls_of.(h) - 1 in
    if c >= 0 then c
    else begin
      let c = cv.classes in
      cv.classes <- c + 1;
      cv.cls_of.(h) <- c + 1;
      cv.cls_mask.(c) <- mask;
      cv.cls_head.(c) <- -1;
      cv.cls_min.(c) <- -2;
      cv.cls_floor.(c) <- Float.infinity;
      c
    end

  (* The head of the walk lies under the node (bits, len). *)
  let head_under t (cv : cover) ~bits ~len =
    cv.cursor < t.n
    &&
    let key = get t.keys cv.cursor in
    Prefix.covers_bits ~abits:bits ~alen:len ~bbits:(Prefix.key_bits key)
      ~blen:(Prefix.key_length key)

  (* Visit the trie node (bits, len) that the sorted counters imply, the
     head of the walk lying under it, and consume every counter it covers.
     The node's S mask (sub-filters with traffic below it), T mask
     (sub-filters a merge here frees an entry on), cost and counter count
     come back in the registers.  Each structural node takes the next slot
     on entry: slot order is left-first pre-order, exactly the order of
     the candidate list the bottom-up fold built by prepending (it visited
     right subtrees first), which the greedy's tie-break depends on. *)
  let rec visit t (cv : cover) ~bits ~len =
    if cv.cursor < t.n && length_at t cv.cursor = len then begin
      (* A monitored counter: the partition has nothing below it. *)
      let i = cv.cursor in
      cv.cursor <- i + 1;
      cv.ret_s <- effective t i;
      cv.ret_t <- 0;
      cv.ret_count <- 1;
      cv.regs.ret_cost <- t.scores.(i)
    end
    else begin
      if cv.slots = Array.length cv.node_key then grow cv;
      let slot = cv.slots in
      cv.slots <- slot + 1;
      let child = len + 1 in
      let rbits = bits lor (1 lsl (Prefix.address_bits - child)) in
      let has_l = head_under t cv ~bits ~len:child in
      if has_l then visit t cv ~bits ~len:child;
      let ls = cv.ret_s and lt = cv.ret_t and lcount = cv.ret_count in
      let lcost = cv.regs.ret_cost in
      let has_r = head_under t cv ~bits:rbits ~len:child in
      if has_r then visit t cv ~bits:rbits ~len:child;
      (* With one child, its summary is already in the registers. *)
      if has_l && has_r then begin
        cv.ret_t <- lt lor cv.ret_t lor (ls land cv.ret_s);
        cv.ret_s <- ls lor cv.ret_s;
        cv.ret_count <- lcount + cv.ret_count;
        cv.regs.ret_cost <- lcost +. cv.regs.ret_cost
      end
      else if not (has_l || has_r) then begin
        cv.ret_s <- 0;
        cv.ret_t <- 0;
        cv.ret_count <- 0;
        cv.regs.ret_cost <- 0.0
      end;
      cv.node_key.(slot) <- Prefix.key_of ~bits ~length:len;
      cv.node_end.(slot) <- cv.slots;
      cv.node_cost.(slot) <- cv.regs.ret_cost;
      cv.node_class.(slot) <-
        (if cv.ret_t <> 0 && cv.ret_count >= 2 then class_of cv cv.ret_t else -1)
    end

  let build t =
    let cv = t.cover in
    cv.slots <- 0;
    cv.cursor <- 0;
    cv.classes <- 0;
    Array.fill cv.cls_of 0 (Array.length cv.cls_of) 0;
    let filter = t.spec.Task_spec.filter in
    visit t cv ~bits:(Prefix.bits filter) ~len:(Prefix.length filter);
    (* Each class's members in slot order: prepend from the last slot. *)
    for j = cv.slots - 1 downto 0 do
      let c = cv.node_class.(j) in
      if c >= 0 then begin
        cv.node_next.(j) <- cv.cls_head.(c);
        cv.cls_head.(c) <- j;
        cv.cls_floor.(c) <- Float.min cv.cls_floor.(c) cv.node_cost.(j)
      end
    done;
    (* Lower bound on the cost of any candidate freeing each sub-filter;
       stays a valid lower bound across repairs.  Float.min is
       order-free, so it can gather class by class. *)
    Array.fill cv.cheapest 0 (Array.length cv.cheapest) Float.infinity;
    for c = 0 to cv.classes - 1 do
      for i = 0 to Array.length cv.cheapest - 1 do
        if cv.cls_mask.(c) land (1 lsl i) <> 0 then
          cv.cheapest.(i) <- Float.min cv.cheapest.(i) cv.cls_floor.(c)
      done
    done;
    cv.built <- true;
    t

  (* Slots [lo, hi) stop being candidates; their classes must find their
     least member again. *)
  let kill (cv : cover) lo hi =
    cv.scans <- cv.scans + (hi - lo);
    for j = lo to hi - 1 do
      let c = cv.node_class.(j) in
      if c >= 0 then begin
        cv.node_class.(j) <- -1;
        cv.cls_min.(c) <- -2
      end
    done

  let[@inline] covers_node (cv : cover) j ~bits ~len =
    let key = cv.node_key.(j) in
    Prefix.covers_bits ~abits:(Prefix.key_bits key) ~alen:(Prefix.key_length key) ~bbits:bits
      ~blen:len

  let[@inline] under_node (cv : cover) j ~bits ~len =
    let key = cv.node_key.(j) in
    Prefix.covers_bits ~abits:bits ~alen:len ~bbits:(Prefix.key_bits key)
      ~blen:(Prefix.key_length key)

  (* Kill the slots in [j, stop), a run of sibling subtrees, that the
     prefix (bits, len) covers: one node per level is read on the way down
     to them, each level's other siblings skipped by their subtree ends. *)
  let rec kill_under (cv : cover) j stop ~bits ~len =
    if j < stop then begin
      cv.scans <- cv.scans + 1;
      if under_node cv j ~bits ~len then
        (* No sibling: (bits, len) lies strictly inside their parent. *)
        kill cv j cv.node_end.(j)
      else if covers_node cv j ~bits ~len then kill_under cv (j + 1) cv.node_end.(j) ~bits ~len
      else kill_under cv cv.node_end.(j) stop ~bits ~len
    end

  (* A merge at [ancestor] turns that subtree into a single counter: every
     candidate inside it disappears; all others remain exactly valid (the
     merged counter's score is the sum of its victims').  The cheapest
     bounds are left untouched — they only ever under-estimate. *)
  let repair_after_merge t ancestor =
    let cv = t.cover in
    kill_under cv 0 cv.slots ~bits:(Prefix.bits ancestor) ~len:(Prefix.length ancestor)

  (* The picks' subtrees: what merging at them destroyed. *)
  let repair_picks t =
    let cv = t.cover in
    for i = 0 to cv.picks - 1 do
      let j = cv.chosen.(i) in
      kill cv j cv.node_end.(j)
    done

  (* Lower bound on the cost of covering [f]: any solution must include,
     for each sub-filter, a candidate at least as expensive as that
     sub-filter's cheapest. *)
  let bound (cv : cover) f =
    cv.regs.bound_acc <- 0.0;
    for i = 0 to Array.length cv.cheapest - 1 do
      if f land (1 lsl i) <> 0 then cv.regs.bound_acc <- Float.max cv.regs.bound_acc cv.cheapest.(i)
    done;
    cv.regs.bound_acc

  let min_cost_bound t f = bound t.cover f

  (* Drop from the running solve the slots in [j, stop) whose node covers
     (bits, len): the path down to it, walked as [kill_under] walks. *)
  let rec drop_path (cv : cover) j stop ~bits ~len =
    if j < stop then begin
      cv.scans <- cv.scans + 1;
      if covers_node cv j ~bits ~len then begin
        cv.stamp.(j) <- cv.solve_id;
        drop_path cv (j + 1) cv.node_end.(j) ~bits ~len
      end
      else drop_path cv cv.node_end.(j) stop ~bits ~len
    end

  (* [cls_min] and [cls_next] of class [c] over its members from [j] on. *)
  let rec find_min (cv : cover) c j =
    if j >= 0 then begin
      cv.scans <- cv.scans + 1;
      if cv.node_class.(j) >= 0 then begin
        let s = cv.cls_min.(c) in
        if s < 0 || cv.node_cost.(j) < cv.node_cost.(s) then begin
          cv.cls_next.(c) <- (if s < 0 then Float.infinity else cv.node_cost.(s));
          cv.cls_min.(c) <- j
        end
        else if cv.node_cost.(s) < cv.node_cost.(j) && cv.node_cost.(j) < cv.cls_next.(c) then
          cv.cls_next.(c) <- cv.node_cost.(j)
      end;
      find_min cv c cv.node_next.(j)
    end

  (* The first member from [j] on live in this solve with the lowest cost
     per gain [g], a later member winning only when [not (best <= ratio)],
     into [class_best] (left -1 if none) and [class_ratio]. *)
  let rec scan_class (cv : cover) j g =
    if j >= 0 then begin
      cv.scans <- cv.scans + 1;
      if cv.node_class.(j) >= 0 && cv.stamp.(j) <> cv.solve_id then begin
        let ratio = cv.node_cost.(j) /. cv.gains.(g) in
        if cv.class_best < 0 || not (cv.regs.class_ratio <= ratio) then begin
          cv.class_best <- j;
          cv.regs.class_ratio <- ratio
        end
      end;
      scan_class cv cv.node_next.(j) g
    end

  (* The first live slot with the lowest cost per newly covered sub-filter
     (a later slot replaces the best only when [not (best <= ratio)], the
     tie-break of one fold over the slots in order), left in [cv.best]; -1
     when no slot covers any of [uncovered].  One step per class: the
     class's cached least-cost member is its answer, unless this solve
     dropped it or the next cost up divides to the same ratio, when the
     class is scanned.  Costs are sums of scores, never NaN, so "first
     lowest" orders (ratio, slot) pairs totally and the classes' answers
     combine by it. *)
  let[@hot] pick (cv : cover) uncovered =
    cv.best <- -1;
    for c = 0 to cv.classes - 1 do
      let gain = Switch_mask.cardinal (cv.cls_mask.(c) land uncovered) in
      if gain > 0 then begin
        if cv.cls_min.(c) = -2 then begin
          cv.cls_min.(c) <- -1;
          find_min cv c cv.cls_head.(c)
        end;
        let s = cv.cls_min.(c) in
        if s >= 0 then begin
          cv.scans <- cv.scans + 1;
          let g = cv.gains.(gain) in
          if cv.stamp.(s) <> cv.solve_id && cv.node_cost.(s) /. g < cv.cls_next.(c) /. g then begin
            cv.class_best <- s;
            cv.regs.class_ratio <- cv.node_cost.(s) /. g
          end
          else begin
            cv.class_best <- -1;
            scan_class cv cv.cls_head.(c) gain
          end;
          let j = cv.class_best and ratio = cv.regs.class_ratio in
          if
            j >= 0
            && (cv.best < 0
               || ratio < cv.regs.best_ratio
               || (ratio <= cv.regs.best_ratio && j < cv.best))
          then begin
            cv.best <- j;
            cv.regs.best_ratio <- ratio
          end
        end
      end
    done

  (* Pick until [uncovered] is empty, each pick dropping every slot nested
     with it (its path from the root and its subtree), so the picks are
     disjoint.  False when a sub-filter cannot be covered. *)
  let rec greedy (cv : cover) uncovered =
    uncovered = 0
    ||
    (pick cv uncovered;
     let b = cv.best in
     b >= 0
     &&
     let key = cv.node_key.(b) and stop = cv.node_end.(b) in
     cv.chosen.(cv.picks) <- b;
     cv.picks <- cv.picks + 1;
     cv.regs.cost <- cv.regs.cost +. cv.node_cost.(b);
     drop_path cv 0 cv.slots ~bits:(Prefix.key_bits key) ~len:(Prefix.key_length key);
     cv.scans <- cv.scans + (stop - b - 1);
     for j = b + 1 to stop - 1 do
       cv.stamp.(j) <- cv.solve_id
     done;
     greedy cv (uncovered land lnot cv.cls_mask.(cv.node_class.(b))))

  (* Greedy cover of [f] ignoring the candidates that cover the
     (ex_bits, ex_len) prefix ([ex_len < 0] ignores none): the picks go to
     [chosen], their summed cost to [regs.cost].  False if [f] cannot be
     covered. *)
  let[@hot] solve_mask t ~ex_bits ~ex_len f =
    let cv = t.cover in
    cv.picks <- 0;
    cv.regs.cost <- 0.0;
    cv.solve_id <- cv.solve_id + 1;
    if ex_len >= 0 then drop_path cv 0 cv.slots ~bits:ex_bits ~len:ex_len;
    greedy cv f

  let solve t ~exclude f =
    match exclude with
    | None -> solve_mask t ~ex_bits:0 ~ex_len:(-1) f
    | Some p -> solve_mask t ~ex_bits:(Prefix.bits p) ~ex_len:(Prefix.length p) f

  let picks t = t.cover.picks

  let picked t i = Prefix.of_key t.cover.node_key.(t.cover.chosen.(i))

  let cost t = t.cover.regs.cost
end

let cover_scans t = t.cover.scans

(* ---- merge and divide ---- *)

(* Replace every counter under [ancestor] by one counter on it, built in
   place in the first victim's slot.  The victims are one run of slots in
   prefix order, so the float sums below add in the same order whatever
   history built the configuration: score and CD mean from 0.0, and per
   sub-filter the volumes of the victims that have one (a sub-filter no
   victim has a volume on stays absent). *)
let[@hot] merge t ~abits ~alen =
  let lo = bisect t abits 0 t.n in
  let hi = bisect t (abits + (1 lsl (Prefix.address_bits - alen))) lo t.n in
  (* Otherwise a counter on or above [ancestor] already covers it. *)
  if
    lo < hi
    && alen < length_at t lo
    && Prefix.covers_bits ~abits ~alen ~bbits:(bits_at t lo) ~blen:(length_at t lo)
  then begin
    let k = t.k in
    let fl = get t.flags lo in
    bump t.usage (effective t lo) (-1) 0;
    t.scores.(lo) <- 0.0 +. t.scores.(lo);
    t.means.(lo) <- (if fl land seeded_flag <> 0 then 0.0 +. t.means.(lo) else 0.0);
    for i = lo + 1 to hi - 1 do
      let vf = get t.flags i and acc = get t.flags lo in
      bump t.usage (effective t i) (-1) 0;
      for b = 0 to k - 1 do
        if vf land present b <> 0 then begin
          let v = t.vols.((i * k) + b) in
          if acc land present b <> 0 then t.vols.((lo * k) + b) <- t.vols.((lo * k) + b) +. v
          else t.vols.((lo * k) + b) <- v
        end
      done;
      t.scores.(lo) <- t.scores.(lo) +. t.scores.(i);
      if vf land seeded_flag <> 0 then t.means.(lo) <- t.means.(lo) +. t.means.(i);
      set t.flags lo (acc lor (vf land (seeded_flag lor presence_mask k)))
    done;
    init_slot t lo
      ~key:(Prefix.key_of ~bits:abits ~length:alen)
      ~flags:(get t.flags lo land lnot fresh_flag);
    shift t ~lo:(lo + 1) ~hi ~len:0;
    seal_total t lo;
    bump t.usage (effective t lo) 1 0
  end

(* Merge at the last solve's picks, the last pick first. *)
let apply_merges t =
  let cv = t.cover in
  for i = cv.picks - 1 downto 0 do
    let key = cv.node_key.(cv.chosen.(i)) in
    merge t ~abits:(Prefix.key_bits key) ~alen:(Prefix.key_length key)
  done

let heap_grow (h : heap) =
  let n = max 8 (2 * Array.length h.h_key) in
  h.h_score <- grown_floats h.h_score n h.h_size;
  h.h_key <- grown_ints h.h_key n h.h_size;
  h.h_stamp <- grown_ints h.h_stamp n h.h_size

let heap_swap (h : heap) i j =
  let s = h.h_score.(i) and key = h.h_key.(i) and stamp = h.h_stamp.(i) in
  h.h_score.(i) <- h.h_score.(j);
  h.h_key.(i) <- h.h_key.(j);
  h.h_stamp.(i) <- h.h_stamp.(j);
  h.h_score.(j) <- s;
  h.h_key.(j) <- key;
  h.h_stamp.(j) <- stamp

let[@inline] heap_above (h : heap) i j = Float.compare h.h_score.(i) h.h_score.(j) > 0

let rec sift_up (h : heap) i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_above h i parent then begin
      heap_swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down (h : heap) i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = if l < h.h_size && heap_above h l i then l else i in
  let largest = if r < h.h_size && heap_above h r largest then r else largest in
  if largest <> i then begin
    heap_swap h i largest;
    sift_down h largest
  end

(* Queue slot [i] for the divide phase. *)
let push t i =
  let h = t.heap in
  if h.h_size = Array.length h.h_key then heap_grow h;
  let j = h.h_size in
  h.h_score.(j) <- t.scores.(i);
  h.h_key.(j) <- get t.keys i;
  h.h_stamp.(j) <- get t.stamps i;
  h.h_size <- j + 1;
  sift_up h j

(* Pop the best entry into [top_key]/[top_stamp]; false when empty. *)
let pop (h : heap) =
  if h.h_size = 0 then false
  else begin
    h.top_key <- h.h_key.(0);
    h.top_stamp <- h.h_stamp.(0);
    h.h_size <- h.h_size - 1;
    if h.h_size > 0 then begin
      h.h_score.(0) <- h.h_score.(h.h_size);
      h.h_key.(0) <- h.h_key.(h.h_size);
      h.h_stamp.(0) <- h.h_stamp.(h.h_size);
      sift_down h 0
    end;
    true
  end

(* Replace the live counter in slot [i] by its two children, in one shift,
   and queue whichever can still be divided.  Each child inherits half the
   parent's score and, when it has one, half its CD mean. *)
let[@hot] divide t ~leaf_length i =
  let key = get t.keys i in
  let len = Prefix.key_length key in
  if len < Prefix.address_bits then begin
    let lbits = Prefix.key_bits key and child = len + 1 in
    let rbits = lbits lor (1 lsl (Prefix.address_bits - child)) in
    let fl = get t.flags i land seeded_flag in
    let half_score = t.scores.(i) /. 2.0 in
    let half_mean = if fl <> 0 then t.means.(i) /. 2.0 else 0.0 in
    bump t.usage (effective t i) (-1) 0;
    shift t ~lo:(i + 1) ~hi:(i + 1) ~len:1;
    init_slot t i ~key:(Prefix.key_of ~bits:lbits ~length:child) ~flags:(fl lor fresh_flag);
    init_slot t (i + 1) ~key:(Prefix.key_of ~bits:rbits ~length:child) ~flags:(fl lor fresh_flag);
    t.scores.(i) <- half_score;
    t.scores.(i + 1) <- half_score;
    t.means.(i) <- half_mean;
    t.means.(i + 1) <- half_mean;
    bump t.usage (effective t i) 1 0;
    bump t.usage (effective t (i + 1)) 1 0;
    if child < leaf_length then begin
      push t i;
      push t (i + 1)
    end
  end

(* ---- Algorithm 2 ---- *)

let total_allocation allocations = Array.fold_left ( + ) 0 allocations

(* Merge minimum-cost covers until no switch exceeds its allocation.  If a
   cover cannot be found (single counter left on an overloaded switch),
   collapse to the root filter as a last resort. *)
let rec shrink_to_fit t guard =
  let f = overloaded t 0 0 in
  if f <> 0 && guard > 0 then begin
    if Cover.solve_mask (Cover.build t) ~ex_bits:0 ~ex_len:(-1) f && t.cover.picks > 0 then begin
      apply_merges t;
      shrink_to_fit t (guard - 1)
    end
    else if t.n > 1 then begin
      let filter = t.spec.Task_spec.filter in
      merge t ~abits:(Prefix.bits filter) ~alen:(Prefix.length filter);
      shrink_to_fit t (guard - 1)
    end
  end

let push_divisible t ~leaf_length =
  for i = 0 to t.n - 1 do
    if length_at t i < leaf_length then push t i
  done

let rec divide_loop t ~leaf_length ~improvement_floor budget =
  if budget > 0 && pop t.heap then begin
    (* Skip stale heap entries (counters merged away meanwhile, including
       any since recreated on the same prefix: a new stamp). *)
    let i = slot_of_key t t.heap.top_key in
    if i < 0 || get t.stamps i <> t.heap.top_stamp then
      divide_loop t ~leaf_length ~improvement_floor budget
    else if t.scores.(i) <= 0.0 then () (* max score <= 0: nothing worth dividing *)
    else if length_at t i = Prefix.address_bits then
      divide_loop t ~leaf_length ~improvement_floor budget
    else begin
      let score = t.scores.(i) in
      let len = length_at t i in
      let child = len + 1 in
      let lbits = bits_at t i in
      let rbits = lbits lor (1 lsl (Prefix.address_bits - child)) in
      let s_l = Topology.bits_mask t.topology ~bits:lbits ~length:child land t.active_mask in
      let s_r = Topology.bits_mask t.topology ~bits:rbits ~length:child land t.active_mask in
      let extra = s_l land s_r in
      let f = blocked t extra 0 0 in
      if f = 0 then begin
        (* A divide keeps built candidates conservatively valid: the
           divided counter's score equals its children's sum, S sets are
           unchanged, and T sets can only have grown. *)
        divide t ~leaf_length i;
        divide_loop t ~leaf_length ~improvement_floor (budget - 1)
      end
      else begin
        (* Candidates are a full pass over the counters, so build them
           once per divide phase and repair them after each merge. *)
        if not t.cover.built then ignore (Cover.build t);
        (* Any cover of f costs at least the per-switch cheapest bound,
           so skip the solve outright when it cannot pay. *)
        if Cover.bound t.cover f +. improvement_floor >= score then
          divide_loop t ~leaf_length ~improvement_floor budget
        else begin
          if
            Cover.solve_mask t ~ex_bits:lbits ~ex_len:len f
            && t.cover.regs.cost +. improvement_floor < score
          then begin
            apply_merges t;
            Cover.repair_picks t;
            (* Re-check: the merge must actually have freed room.  The
               merges never touch the excluded counter, but they can move
               its slot. *)
            if blocked t extra 0 0 = 0 then
              divide t ~leaf_length (slot_of_key t (Prefix.key_of ~bits:lbits ~length:len))
          end;
          divide_loop t ~leaf_length ~improvement_floor (budget - 1)
        end
      end
    end
  end

let[@hot] divide_phase t ~allocations =
  let leaf_length = t.spec.Task_spec.leaf_length in
  t.heap.h_size <- 0;
  push_divisible t ~leaf_length;
  t.cover.built <- false;
  (* Paid divides (ones that must merge other counters to free entries)
     must beat the merge cost by a margin, or the configuration churns
     forever swapping near-equal marginal prefixes. *)
  let improvement_floor = t.spec.Task_spec.threshold /. 16.0 in
  divide_loop t ~leaf_length ~improvement_floor ((4 * total_allocation allocations) + 64)

(* Record the allocation of every sub-filter for this configure and return
   the mask of those granted at least one entry. *)
let rec load_allocations t allocations i granted =
  if i = Array.length t.alloc then granted
  else begin
    let a = allocations.(i) in
    t.alloc.(i) <- a;
    load_allocations t allocations (i + 1) (if a >= 1 then granted lor (1 lsl i) else granted)
  end

let configure t ~allocations =
  let granted = load_allocations t allocations 0 0 in
  if granted <> t.active_mask then begin
    t.active_mask <- granted;
    recompute_usage t
  end;
  shrink_to_fit t (t.n + 8);
  divide_phase t ~allocations

(* ---- checkpoints ---- *)

(* One counter's section: its volumes as [sw]/[vol] pairs in switch-id
   order and its CD mean in Ewma's own format. *)
let emit_counter w t i =
  let module C = Dream_util.Codec in
  C.section w "counter";
  C.string w "prefix" (Prefix.to_string (prefix t i));
  let vols = volumes t i in
  C.int w "volumes" (List.length vols);
  List.iter
    (fun (sw, v) ->
      C.int w "sw" sw;
      C.float w "vol" v)
    vols;
  C.float w "score" t.scores.(i);
  Ewma.emit w (Ewma.restore ~history:t.history ~avg:(mean t i));
  C.bool w "fresh" (fresh t i)

let emit w t =
  let module C = Dream_util.Codec in
  C.section w "monitor";
  C.int w "active" (Switch_mask.cardinal t.active_mask);
  Switch_mask.iter t.topology (fun sw _ -> C.int w "sw" sw) t.active_mask;
  C.int w "counters" t.n;
  for i = 0 to t.n - 1 do
    emit_counter w t i
  done

(* Inverse of [emit_counter], into a new last slot. *)
let parse_counter r t =
  let module C = Dream_util.Codec in
  C.expect_section r "counter";
  let p = Prefix.of_string (C.string_field r "prefix") in
  let n = C.int_field r "volumes" in
  let i = t.n in
  shift t ~lo:i ~hi:i ~len:1;
  let present_bits = ref 0 in
  ignore
    (C.repeat n (fun () ->
         let sw = C.int_field r "sw" in
         let v = C.float_field r "vol" in
         let b = Topology.bit_of_switch t.topology sw in
         if b < 0 then C.parse_error 0 "monitor: a counter volume on a switch the task never sees";
         t.vols.((i * t.k) + b) <- v;
         present_bits := !present_bits lor present b));
  let score = C.float_field r "score" in
  let mean = Ewma.parse r in
  if not (Float.equal (Ewma.history mean) t.history) then
    C.parse_error 0 "monitor: a counter's mean history differs from the task's cd_history";
  let fresh = C.bool_field r "fresh" in
  let seeded, avg = match Ewma.value mean with Some v -> (true, v) | None -> (false, 0.0) in
  init_slot t i ~key:(Prefix.key p)
    ~flags:
      (!present_bits lor (if seeded then seeded_flag else 0) lor if fresh then fresh_flag else 0);
  t.scores.(i) <- score;
  t.means.(i) <- avg;
  (* [total] is recomputed with the same sum [ingest] uses, so the restored
     float is bit-identical to the captured one. *)
  seal_total t i

(* Whether slots [i, n) tile the filter from address [next] on: each
   counter lies inside the filter and starts where the one before it ended,
   and the last ends with the filter.  So the counters are strictly
   increasing, disjoint, inside the filter and cover it, in one pass. *)
let rec tiles t i next =
  let filter = t.spec.Task_spec.filter in
  if i = t.n then next = Prefix.last_address filter + 1
  else begin
    let p = prefix t i in
    Prefix.covers filter p
    && Prefix.first_address p = next
    && tiles t (i + 1) (Prefix.last_address p + 1)
  end

let is_partition t = tiles t 0 (Prefix.first_address t.spec.Task_spec.filter)

let parse r ~spec ~topology =
  let module C = Dream_util.Codec in
  C.expect_section r "monitor";
  let n = C.int_field r "active" in
  let active =
    C.repeat n (fun () -> C.int_field r "sw")
    |> List.fold_left
         (fun acc sw ->
           let b = Topology.bit_of_switch topology sw in
           if b < 0 then
             C.parse_error 0 "monitor: an active switch sees none of the task's sub-filters";
           acc lor (1 lsl b))
         Switch_mask.empty
  in
  let n = C.int_field r "counters" in
  if n < 0 then C.parse_error 0 "monitor: negative counter count";
  let t = make ~spec ~topology ~active ~cap:n in
  for _ = 1 to n do
    parse_counter r t
  done;
  if not (is_partition t) then
    C.parse_error 0 "monitor: the counters do not partition the task's filter";
  recompute_usage t;
  t
