module Prefix = Dream_prefix.Prefix
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology

(* Float registers of the build walk, the greedy and the divide loop.  An
   all-float record is stored flat, so writing a field boxes nothing. *)
type float_regs = {
  mutable ret_cost : float; (* summary of the node just visited: its cost *)
  mutable best_ratio : float; (* the greedy's best cost per sub-filter so far *)
  mutable class_ratio : float; (* ... and the best of the class [pick] is in *)
  mutable bound : float; (* the last [bound] *)
  mutable cost : float; (* the last solve's cost: the picks' summed score *)
  mutable floor : float; (* what a paid divide's score must beat its merges' cost by *)
}

(* cover()'s candidate table and the divide heap, the scratch of Algorithm 2
   on whichever monitor a configure hands it.

   Slot [j] of the table is one structural trie node above the counters,
   in the order of a left-first pre-order walk, so the node's subtree is
   the slot range [j, node_end.(j)).  It is a live candidate while
   [node_class.(j) >= 0], and a solve drops it by writing its id into
   [stamp.(j)].

   A build groups its candidates into classes, one per distinct T mask,
   each a list of its members in slot order threaded through [node_next].
   A class's members all gain a pick the same, so the greedy's choice in
   it is its member of least cost unless the solve dropped that member or
   the next cost up divides to the same ratio: [cls_min] caches the member
   and [cls_next] that next cost.

   The heap is a max-heap on score.  An entry is a score plus the key and
   stamp of the slot it was pushed for; the three arrays move together, in
   exactly the order Dream_util.Heap moves its elements, so equal scores
   pop in the same order.

   Growable arrays, one set per controller, that every task's configure
   runs on in turn: they grow to the largest task's needs and then never
   again.  A configure writes every slot before it reads it, except the
   solve stamps: the solve id only ever rises, so a stamp any earlier
   solve left, on this monitor or another, is below the running one. *)
type t = {
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
  mutable k : int; (* sub-filters of the monitor last built *)
  gains : float array; (* [gains.(g)] is [float_of_int g] *)
  cheapest : float array; (* per sub-filter below [k]: lowest candidate cost freeing it *)
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
  mutable h_score : float array;
  mutable h_key : int array;
  mutable h_stamp : int array;
  mutable h_size : int;
  mutable top_key : int; (* the last pop's entry *)
  mutable top_stamp : int;
  regs : float_regs;
}

(* The monitor's columns are read here directly, never through a function
   of Monitor's: lib builds with -opaque, so no such call is inlined. *)
let[@inline] get col i = Int64.to_int (Bytes.get_int64_ne col (i lsl 3))

let[@inline] length_at (m : Monitor.t) i = Prefix.key_length (get m.keys i)

(* Int arrays are copied element by element: a store of an immediate needs
   no write barrier, where Array.blit would run one per element into a
   major-heap array. *)
let grown_ints (a : int array) n used =
  let b =
    (Array.make n 0 [@alloc.allow "growth only: the workspace keeps its room across tasks"])
  in
  for j = 0 to used - 1 do
    b.(j) <- a.(j)
  done;
  b

let grown_floats (a : float array) n used =
  let b =
    (Array.make n 0.0 [@alloc.allow "growth only: the workspace keeps its room across tasks"])
  in
  Array.blit a 0 b 0 used;
  b

let create () =
  let max_k = Topology.max_switches_per_task in
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
    k = 0;
    gains = Array.init (max_k + 1) float_of_int;
    cheapest = Array.make max_k Float.infinity;
    chosen = Array.make max_k 0;
    picks = 0;
    scans = 0;
    built = false;
    cursor = 0;
    ret_s = 0;
    ret_t = 0;
    ret_count = 0;
    best = -1;
    class_best = -1;
    h_score = [||];
    h_key = [||];
    h_stamp = [||];
    h_size = 0;
    top_key = 0;
    top_stamp = 0;
    regs =
      { ret_cost = 0.0; best_ratio = 0.0; class_ratio = 0.0; bound = 0.0; cost = 0.0; floor = 0.0 };
  }

let cover_scans t = t.scans [@@lint.allow "oracle hook: test/test_tasks.ml"]

(* ---- cover(): greedy weighted set cover over ancestor T sets ---- *)

(* Structural nodes are fewer than the counters, so the table grows at once
   to the monitor's capacity when that is more than double. *)
let grow t (m : Monitor.t) =
  let n = max m.cap (max 16 (2 * Array.length t.node_key)) and used = t.slots in
  t.node_key <- grown_ints t.node_key n used;
  t.node_end <- grown_ints t.node_end n used;
  t.node_cost <- grown_floats t.node_cost n used;
  t.node_class <- grown_ints t.node_class n used;
  t.node_next <- grown_ints t.node_next n used;
  t.stamp <- grown_ints t.stamp n used

let[@inline] hash t mask =
  let h = mask * 0x9E3779B1 in
  (h lxor (h lsr 17)) land (Array.length t.cls_of - 1)

(* The cell of [cls_of] holding the class of [mask], or the empty cell it
   goes in: linear probing from [h]. *)
let rec probe t mask h =
  let c = t.cls_of.(h) - 1 in
  if c < 0 || t.cls_mask.(c) = mask then h
  else probe t mask ((h + 1) land (Array.length t.cls_of - 1))

(* Room for twice the classes, [cls_of] kept at most half full. *)
let grow_classes t =
  let n = max 16 (2 * Array.length t.cls_mask) and used = t.classes in
  t.cls_mask <- grown_ints t.cls_mask n used;
  t.cls_head <- grown_ints t.cls_head n used;
  t.cls_min <- grown_ints t.cls_min n used;
  t.cls_next <- grown_floats t.cls_next n used;
  t.cls_floor <- grown_floats t.cls_floor n used;
  t.cls_of <- grown_ints t.cls_of (2 * n) 0;
  for c = 0 to used - 1 do
    t.cls_of.(probe t t.cls_mask.(c) (hash t t.cls_mask.(c))) <- c + 1
  done

(* The class of T mask [mask], added if new. *)
let class_of t mask =
  if t.classes = Array.length t.cls_mask then grow_classes t;
  let h = probe t mask (hash t mask) in
  let c = t.cls_of.(h) - 1 in
  if c >= 0 then c
  else begin
    let c = t.classes in
    t.classes <- c + 1;
    t.cls_of.(h) <- c + 1;
    t.cls_mask.(c) <- mask;
    t.cls_head.(c) <- -1;
    t.cls_min.(c) <- -2;
    t.cls_floor.(c) <- Float.infinity;
    c
  end

(* The head of the walk lies under the node (bits, len). *)
let head_under t (m : Monitor.t) ~bits ~len =
  t.cursor < m.n
  &&
  let key = get m.keys t.cursor in
  Prefix.covers_bits ~abits:bits ~alen:len ~bbits:(Prefix.key_bits key)
    ~blen:(Prefix.key_length key)

(* Visit the trie node (bits, len) that the sorted counters imply, the head
   of the walk lying under it, and consume every counter it covers.  The
   node's S mask (sub-filters with traffic below it), T mask (sub-filters a
   merge here frees an entry on), cost and counter count come back in the
   registers.  Each structural node takes the next slot on entry: slot
   order is left-first pre-order, exactly the order of the candidate list
   the bottom-up fold built by prepending (it visited right subtrees
   first), which the greedy's tie-break depends on. *)
let rec visit t (m : Monitor.t) ~bits ~len =
  if t.cursor < m.n && length_at m t.cursor = len then begin
    (* A monitored counter: the partition has nothing below it.  Its S
       mask is the sub-filters it actually occupies. *)
    let i = t.cursor in
    t.cursor <- i + 1;
    t.ret_s <- get m.masks i land m.active_mask;
    t.ret_t <- 0;
    t.ret_count <- 1;
    t.regs.ret_cost <- m.scores.(i)
  end
  else begin
    if t.slots = Array.length t.node_key then grow t m;
    let slot = t.slots in
    t.slots <- slot + 1;
    let child = len + 1 in
    let rbits = bits lor (1 lsl (Prefix.address_bits - child)) in
    let has_l = head_under t m ~bits ~len:child in
    if has_l then visit t m ~bits ~len:child;
    let ls = t.ret_s and lt = t.ret_t and lcount = t.ret_count in
    let lcost = t.regs.ret_cost in
    let has_r = head_under t m ~bits:rbits ~len:child in
    if has_r then visit t m ~bits:rbits ~len:child;
    (* With one child, its summary is already in the registers. *)
    if has_l && has_r then begin
      t.ret_t <- lt lor t.ret_t lor (ls land t.ret_s);
      t.ret_s <- ls lor t.ret_s;
      t.ret_count <- lcount + t.ret_count;
      t.regs.ret_cost <- lcost +. t.regs.ret_cost
    end
    else if not (has_l || has_r) then begin
      t.ret_s <- 0;
      t.ret_t <- 0;
      t.ret_count <- 0;
      t.regs.ret_cost <- 0.0
    end;
    t.node_key.(slot) <- Prefix.key_of ~bits ~length:len;
    t.node_end.(slot) <- t.slots;
    t.node_cost.(slot) <- t.regs.ret_cost;
    t.node_class.(slot) <- (if t.ret_t <> 0 && t.ret_count >= 2 then class_of t t.ret_t else -1)
  end

(* The monitor's candidate table: every structural node with a non-empty T
   set, in the order the greedy breaks ties by, plus a per-sub-filter lower
   bound on the cost of a candidate freeing it.  A merge or divide leaves
   it stale, except for merges at the last solve's picks followed by
   [repair_picks]. *)
let build t (m : Monitor.t) =
  t.slots <- 0;
  t.cursor <- 0;
  t.classes <- 0;
  t.k <- m.k;
  Array.fill t.cls_of 0 (Array.length t.cls_of) 0;
  let filter = m.spec.Task_spec.filter in
  visit t m ~bits:(Prefix.bits filter) ~len:(Prefix.length filter);
  (* Each class's members in slot order: prepend from the last slot. *)
  for j = t.slots - 1 downto 0 do
    let c = t.node_class.(j) in
    if c >= 0 then begin
      t.node_next.(j) <- t.cls_head.(c);
      t.cls_head.(c) <- j;
      t.cls_floor.(c) <- Float.min t.cls_floor.(c) t.node_cost.(j)
    end
  done;
  (* Lower bound on the cost of any candidate freeing each sub-filter;
     stays a valid lower bound across repairs.  Float.min is order-free,
     so it can gather class by class. *)
  Array.fill t.cheapest 0 t.k Float.infinity;
  for c = 0 to t.classes - 1 do
    for i = 0 to t.k - 1 do
      if t.cls_mask.(c) land (1 lsl i) <> 0 then
        t.cheapest.(i) <- Float.min t.cheapest.(i) t.cls_floor.(c)
    done
  done;
  t.built <- true

(* Slots [lo, hi) stop being candidates; their classes must find their
   least member again. *)
let kill t lo hi =
  t.scans <- t.scans + (hi - lo);
  for j = lo to hi - 1 do
    let c = t.node_class.(j) in
    if c >= 0 then begin
      t.node_class.(j) <- -1;
      t.cls_min.(c) <- -2
    end
  done

(* A merge at a pick turns its subtree into a single counter: every
   candidate inside it disappears; all others remain exactly valid (the
   merged counter's score is the sum of its victims').  The cheapest
   bounds are left untouched: they only ever under-estimate. *)
let repair_picks t =
  for i = 0 to t.picks - 1 do
    let j = t.chosen.(i) in
    kill t j t.node_end.(j)
  done

(* Lower bound on the cost of covering [f]: any solution must include, for
   each sub-filter, a candidate at least as expensive as that sub-filter's
   cheapest. *)
let bound t f =
  t.regs.bound <- 0.0;
  for i = 0 to t.k - 1 do
    if f land (1 lsl i) <> 0 then t.regs.bound <- Float.max t.regs.bound t.cheapest.(i)
  done

let[@inline] covers_node t j ~bits ~len =
  let key = t.node_key.(j) in
  Prefix.covers_bits ~abits:(Prefix.key_bits key) ~alen:(Prefix.key_length key) ~bbits:bits
    ~blen:len

(* Drop from the running solve the slots in [j, stop), a run of sibling
   subtrees, whose node covers (bits, len): one node per level is read on
   the way down, each level's other siblings skipped by their subtree
   ends. *)
let rec drop_path t j stop ~bits ~len =
  if j < stop then begin
    t.scans <- t.scans + 1;
    if covers_node t j ~bits ~len then begin
      t.stamp.(j) <- t.solve_id;
      drop_path t (j + 1) t.node_end.(j) ~bits ~len
    end
    else drop_path t t.node_end.(j) stop ~bits ~len
  end

(* [cls_min] and [cls_next] of class [c] over its members from [j] on. *)
let rec find_min t c j =
  if j >= 0 then begin
    t.scans <- t.scans + 1;
    if t.node_class.(j) >= 0 then begin
      let s = t.cls_min.(c) in
      if s < 0 || t.node_cost.(j) < t.node_cost.(s) then begin
        t.cls_next.(c) <- (if s < 0 then Float.infinity else t.node_cost.(s));
        t.cls_min.(c) <- j
      end
      else if t.node_cost.(s) < t.node_cost.(j) && t.node_cost.(j) < t.cls_next.(c) then
        t.cls_next.(c) <- t.node_cost.(j)
    end;
    find_min t c t.node_next.(j)
  end

(* The first member from [j] on live in this solve with the lowest cost per
   gain [g], a later member winning only when [not (best <= ratio)], into
   [class_best] (left -1 if none) and [class_ratio]. *)
let rec scan_class t j g =
  if j >= 0 then begin
    t.scans <- t.scans + 1;
    if t.node_class.(j) >= 0 && t.stamp.(j) <> t.solve_id then begin
      let ratio = t.node_cost.(j) /. t.gains.(g) in
      if t.class_best < 0 || not (t.regs.class_ratio <= ratio) then begin
        t.class_best <- j;
        t.regs.class_ratio <- ratio
      end
    end;
    scan_class t t.node_next.(j) g
  end

(* The first live slot with the lowest cost per newly covered sub-filter (a
   later slot replaces the best only when [not (best <= ratio)], the
   tie-break of one fold over the slots in order), left in [t.best]; -1
   when no slot covers any of [uncovered].  One step per class: the class's
   cached least-cost member is its answer, unless this solve dropped it or
   the next cost up divides to the same ratio, when the class is scanned.
   Costs are sums of scores, never NaN, so "first lowest" orders (ratio,
   slot) pairs totally and the classes' answers combine by it. *)
let[@hot] pick t uncovered =
  t.best <- -1;
  for c = 0 to t.classes - 1 do
    let gain = Switch_mask.cardinal (t.cls_mask.(c) land uncovered) in
    if gain > 0 then begin
      if t.cls_min.(c) = -2 then begin
        t.cls_min.(c) <- -1;
        find_min t c t.cls_head.(c)
      end;
      let s = t.cls_min.(c) in
      if s >= 0 then begin
        t.scans <- t.scans + 1;
        let g = t.gains.(gain) in
        if t.stamp.(s) <> t.solve_id && t.node_cost.(s) /. g < t.cls_next.(c) /. g then begin
          t.class_best <- s;
          t.regs.class_ratio <- t.node_cost.(s) /. g
        end
        else begin
          t.class_best <- -1;
          scan_class t t.cls_head.(c) gain
        end;
        let j = t.class_best and ratio = t.regs.class_ratio in
        if
          j >= 0
          && (t.best < 0
             || ratio < t.regs.best_ratio
             || (ratio <= t.regs.best_ratio && j < t.best))
        then begin
          t.best <- j;
          t.regs.best_ratio <- ratio
        end
      end
    end
  done

(* Pick until [uncovered] is empty, each pick dropping every slot nested
   with it (its path from the root and its subtree), so the picks are
   disjoint.  False when a sub-filter cannot be covered. *)
let rec greedy t uncovered =
  uncovered = 0
  ||
  (pick t uncovered;
   let b = t.best in
   b >= 0
   &&
   let key = t.node_key.(b) and stop = t.node_end.(b) in
   t.chosen.(t.picks) <- b;
   t.picks <- t.picks + 1;
   t.regs.cost <- t.regs.cost +. t.node_cost.(b);
   drop_path t 0 t.slots ~bits:(Prefix.key_bits key) ~len:(Prefix.key_length key);
   t.scans <- t.scans + (stop - b - 1);
   for j = b + 1 to stop - 1 do
     t.stamp.(j) <- t.solve_id
   done;
   greedy t (uncovered land lnot t.cls_mask.(t.node_class.(b))))

(* Greedy cover of [f], ignoring the candidates that cover the prefix
   (ex_bits, ex_len), so a merge never destroys the counter about to be
   divided ([ex_len < 0] ignores none): the picks go to [chosen], their
   summed cost to [regs.cost]. *)
let[@hot] solve_mask t ~ex_bits ~ex_len f =
  t.picks <- 0;
  t.regs.cost <- 0.0;
  t.solve_id <- t.solve_id + 1;
  if ex_len >= 0 then drop_path t 0 t.slots ~bits:ex_bits ~len:ex_len;
  greedy t f

(* Merge at the last solve's picks, the last pick first. *)
let apply_merges t m =
  for i = t.picks - 1 downto 0 do
    let key = t.node_key.(t.chosen.(i)) in
    Monitor.merge m ~abits:(Prefix.key_bits key) ~alen:(Prefix.key_length key)
  done

(* ---- the divide heap ---- *)

(* A divide phase starts with at most one entry per counter: the heap, too,
   grows at once to the monitor's capacity when that is more. *)
let heap_grow t (m : Monitor.t) =
  let n = max m.cap (max 8 (2 * Array.length t.h_key)) in
  t.h_score <- grown_floats t.h_score n t.h_size;
  t.h_key <- grown_ints t.h_key n t.h_size;
  t.h_stamp <- grown_ints t.h_stamp n t.h_size

let heap_swap t i j =
  let s = t.h_score.(i) and key = t.h_key.(i) and stamp = t.h_stamp.(i) in
  t.h_score.(i) <- t.h_score.(j);
  t.h_key.(i) <- t.h_key.(j);
  t.h_stamp.(i) <- t.h_stamp.(j);
  t.h_score.(j) <- s;
  t.h_key.(j) <- key;
  t.h_stamp.(j) <- stamp

let[@inline] heap_above t i j = Float.compare t.h_score.(i) t.h_score.(j) > 0

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_above t i parent then begin
      heap_swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = if l < t.h_size && heap_above t l i then l else i in
  let largest = if r < t.h_size && heap_above t r largest then r else largest in
  if largest <> i then begin
    heap_swap t i largest;
    sift_down t largest
  end

(* Queue slot [i] for the divide phase. *)
let push t (m : Monitor.t) i =
  if t.h_size = Array.length t.h_key then heap_grow t m;
  let j = t.h_size in
  t.h_score.(j) <- m.scores.(i);
  t.h_key.(j) <- get m.keys i;
  t.h_stamp.(j) <- get m.stamps i;
  t.h_size <- j + 1;
  sift_up t j

(* Pop the best entry into [top_key]/[top_stamp]; false when empty. *)
let pop t =
  if t.h_size = 0 then false
  else begin
    t.top_key <- t.h_key.(0);
    t.top_stamp <- t.h_stamp.(0);
    t.h_size <- t.h_size - 1;
    if t.h_size > 0 then begin
      t.h_score.(0) <- t.h_score.(t.h_size);
      t.h_key.(0) <- t.h_key.(t.h_size);
      t.h_stamp.(0) <- t.h_stamp.(t.h_size);
      sift_down t 0
    end;
    true
  end

(* ---- Algorithm 2 ---- *)

(* Divide the counter in slot [i] and queue whichever child can still be
   divided. *)
let divide t m ~leaf_length i =
  let child = length_at m i + 1 in
  Monitor.divide m i;
  if child < leaf_length then begin
    push t m i;
    push t m (i + 1)
  end

(* Sub-filters of [mask] where one more entry would exceed [alloc]. *)
let rec blocked (m : Monitor.t) alloc mask i acc =
  if mask lsr i = 0 then acc
  else if mask land (1 lsl i) <> 0 && m.usage.(i) + 1 > alloc.(i) then
    blocked m alloc mask (i + 1) (acc lor (1 lsl i))
  else blocked m alloc mask (i + 1) acc

(* Sub-filters holding more entries than [alloc] allows. *)
let rec overloaded (m : Monitor.t) alloc i acc =
  if i = Array.length m.usage then acc
  else begin
    let used = m.usage.(i) in
    overloaded m alloc (i + 1) (if used > 0 && used > alloc.(i) then acc lor (1 lsl i) else acc)
  end

(* Merge minimum-cost covers until no switch exceeds its allocation.  If a
   cover cannot be found (single counter left on an overloaded switch),
   collapse to the root filter as a last resort. *)
let rec shrink_to_fit t (m : Monitor.t) alloc guard =
  let f = overloaded m alloc 0 0 in
  if f <> 0 && guard > 0 then begin
    build t m;
    if solve_mask t ~ex_bits:0 ~ex_len:(-1) f && t.picks > 0 then begin
      apply_merges t m;
      shrink_to_fit t m alloc (guard - 1)
    end
    else if m.n > 1 then begin
      let filter = m.spec.Task_spec.filter in
      Monitor.merge m ~abits:(Prefix.bits filter) ~alen:(Prefix.length filter);
      shrink_to_fit t m alloc (guard - 1)
    end
  end

let rec divide_loop t (m : Monitor.t) alloc ~leaf_length budget =
  if budget > 0 && pop t then begin
    (* Skip stale heap entries (counters merged away meanwhile, including
       any since recreated on the same prefix: a new stamp). *)
    let i = Monitor.slot_of_key m t.top_key in
    if i < 0 || get m.stamps i <> t.top_stamp then divide_loop t m alloc ~leaf_length budget
    else if m.scores.(i) <= 0.0 then () (* max score <= 0: nothing worth dividing *)
    else if length_at m i = Prefix.address_bits then divide_loop t m alloc ~leaf_length budget
    else begin
      let score = m.scores.(i) in
      let len = length_at m i in
      let child = len + 1 in
      let lbits = Prefix.key_bits (get m.keys i) in
      let rbits = lbits lor (1 lsl (Prefix.address_bits - child)) in
      let s_l = Topology.bits_mask m.topology ~bits:lbits ~length:child land m.active_mask in
      let s_r = Topology.bits_mask m.topology ~bits:rbits ~length:child land m.active_mask in
      let extra = s_l land s_r in
      let f = blocked m alloc extra 0 0 in
      if f = 0 then begin
        (* A divide keeps built candidates conservatively valid: the
           divided counter's score equals its children's sum, S sets are
           unchanged, and T sets can only have grown. *)
        divide t m ~leaf_length i;
        divide_loop t m alloc ~leaf_length (budget - 1)
      end
      else begin
        (* Candidates are a full pass over the counters, so build them once
           per divide phase and repair them after each merge. *)
        if not t.built then build t m;
        (* Any cover of f costs at least the per-switch cheapest bound, so
           skip the solve outright when it cannot pay. *)
        bound t f;
        if t.regs.bound +. t.regs.floor >= score then divide_loop t m alloc ~leaf_length budget
        else begin
          if solve_mask t ~ex_bits:lbits ~ex_len:len f && t.regs.cost +. t.regs.floor < score
          then begin
            apply_merges t m;
            repair_picks t;
            (* Re-check: the merge must actually have freed room.  The
               merges never touch the excluded counter, but they can move
               its slot. *)
            if blocked m alloc extra 0 0 = 0 then
              divide t m ~leaf_length
                (Monitor.slot_of_key m (Prefix.key_of ~bits:lbits ~length:len))
          end;
          divide_loop t m alloc ~leaf_length (budget - 1)
        end
      end
    end
  end

let[@hot] divide_phase t (m : Monitor.t) alloc =
  let leaf_length = m.spec.Task_spec.leaf_length in
  t.h_size <- 0;
  for i = 0 to m.n - 1 do
    if length_at m i < leaf_length then push t m i
  done;
  t.built <- false;
  divide_loop t m alloc ~leaf_length ((4 * Array.fold_left ( + ) 0 alloc) + 64)

(* The mask of the sub-filters granted at least one entry. *)
let rec granted (m : Monitor.t) alloc i acc =
  if i = m.k then acc
  else granted m alloc (i + 1) (if alloc.(i) >= 1 then acc lor (1 lsl i) else acc)

let configure t (m : Monitor.t) ~allocations =
  (* Paid divides (ones that must merge other counters to free entries)
     must beat the merge cost by a margin, or the configuration churns
     forever swapping near-equal marginal prefixes. *)
  t.regs.floor <- m.spec.Task_spec.threshold /. 16.0;
  Monitor.set_active m (granted m allocations 0 0);
  shrink_to_fit t m allocations (m.n + 8);
  divide_phase t m allocations
