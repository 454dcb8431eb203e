(* The boxed monitor Dream_tasks.Monitor replaced: one [Counter.t]
   record per counter (a Switch_id.Set S set, a Switch_id.Map of volumes,
   an Ewma record), held in one [Counter.t array] in prefix order, with the
   same divide-and-merge, cover() and checkpoint format.  Kept verbatim as
   the differential oracle for the struct-of-arrays table: driven with the
   same ingest, rescore and configure steps, both must agree bit for bit.
   Only the tests use it. *)

module Task_spec = Dream_tasks.Task_spec

module Prefix = Prefix_ops
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology
module Ewma = Reference_ewma
module Heap = Reference_heap

module Counter = struct
  type t = {
    prefix : Prefix.t;
    switches : Switch_id.Set.t;
    mutable volumes : float Switch_id.Map.t;
    mutable total : float;
    mutable score : float;
    mutable mean : Ewma.t;
    mutable fresh : bool;
  }

  let create ~prefix ~switches =
    {
      prefix;
      switches;
      volumes = Switch_id.Map.empty;
      total = 0.0;
      score = 0.0;
      mean = Ewma.create ~history:Task_spec.cd_history;
      fresh = true;
    }

  let set_volumes t volumes =
    t.volumes <- volumes;
    t.total <- Switch_id.Map.fold (fun _ v acc -> acc +. v) volumes 0.0;
    t.fresh <- false

  let volume_on t sw = match Switch_id.Map.find_opt sw t.volumes with Some v -> v | None -> 0.0

  let wildcards t ~leaf_length = leaf_length - Prefix.length t.prefix

  let is_exact t ~leaf_length = Prefix.length t.prefix >= leaf_length

  let cd_deviation t = Float.abs (t.total -. Ewma.value_or t.mean t.total)

  let update_mean t = ignore (Ewma.update t.mean t.total)

  (* The counter's checkpoint text, field by field. *)
  let emit ~history t =
    let module C = Dream_util.Codec in
    let volumes =
      Switch_id.Map.fold
        (fun sw v acc -> acc ^ C.encode (C.int "sw") sw ^ C.encode (C.float "vol") v)
        t.volumes ""
    in
    String.concat ""
      [
        "[counter]\n";
        C.encode (C.string "prefix") (Prefix.to_string t.prefix);
        C.encode (C.int "volumes") (Switch_id.Map.cardinal t.volumes);
        volumes;
        C.encode (C.float "score") t.score;
        C.encode (Ewma.codec ~history) t.mean;
        C.encode (C.bool "fresh") t.fresh;
      ]
end

(* Float registers of the candidate build walk and the greedy.  An
   all-float record is stored flat, so writing a field boxes nothing. *)
type float_regs = {
  mutable ret_cost : float; (* summary of the node just visited: its cost *)
  mutable best_ratio : float; (* the greedy's best cost per sub-filter so far *)
  mutable bound_acc : float; (* running maximum of [min_cost_bound] *)
}

(* cover()'s candidate table, one per monitor and reused across builds.
   Slot [j] is one structural trie node above the counters, in the order of
   a left-first pre-order walk; it is a live candidate while [alive.(j)].
   Growable arrays: after the first few epochs a build allocates nothing. *)
type cover = {
  mutable slots : int; (* slots in use *)
  mutable node_bits : int array; (* node prefix: first-address bits ... *)
  mutable node_len : int array; (* ... and length *)
  mutable node_t : int array; (* T: sub-filters a merge here frees an entry on *)
  mutable node_cost : float array; (* total score of the counters below *)
  mutable alive : bool array; (* a candidate not yet repaired away *)
  mutable work : bool array; (* the greedy's scratch copy of [alive] *)
  cheapest : float array; (* per sub-filter: lowest candidate cost freeing it *)
  mutable built : bool; (* the table matches the current counters *)
  mutable cursor : int; (* build walk position: the next counter slot *)
  (* Registers the build walk returns a node's summary in, and the
     greedy's running best slot: no tuple per node or step. *)
  mutable ret_s : int;
  mutable ret_t : int;
  mutable ret_count : int;
  mutable best : int;
  regs : float_regs;
}

(* The counters live in one growable array, slots [0, n) in prefix order.
   They partition the filter, so the counters under any prefix form one
   contiguous run of slots, found by two bisects.
   Sub-filter sets are int bitmasks: bit [i] stands for sub-filter [i] of
   the topology and so for the switch it maps to (Topology.switch_of_bit).
   The Switch_id.Set views exist only at the module boundary. *)
type t = {
  spec : Task_spec.t;
  topology : Topology.t;
  mutable counters : Counter.t array;
  mutable n : int; (* slots in use *)
  switches : Switch_id.Set.t; (* every switch seeing the filter *)
  usage : int array; (* entries per sub-filter, kept incrementally *)
  alloc : int array; (* per sub-filter allocation of the running configure *)
  mutable active_mask : int; (* sub-filters whose switch has a non-zero allocation *)
  mutable active : Switch_id.Set.t; (* the same, as switches *)
  cover : cover;
}

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let rec set_of_mask topology mask i acc =
  if mask lsr i = 0 then acc
  else begin
    let acc =
      if mask land (1 lsl i) <> 0 then Switch_id.Set.add (Topology.switch_of_bit topology i) acc
      else acc
    in
    set_of_mask topology mask (i + 1) acc
  end

(* Bit of a switch among the sub-filters, or -1 if the task never sees it. *)
let rec bit_of_switch topology sw i =
  if i = Topology.switches_per_task topology then -1
  else if Topology.switch_of_bit topology i = sw then i
  else bit_of_switch topology sw (i + 1)

(* The mask of a switch set, or -1 if it holds a switch the task never sees. *)
let mask_of_set topology set =
  Switch_id.Set.fold
    (fun sw acc ->
      let b = bit_of_switch topology sw 0 in
      if b < 0 || acc < 0 then -1 else acc lor (1 lsl b))
    set 0

(* The sub-filters a counter actually occupies: its traffic sub-filters
   whose switch the allocator has granted at least one entry on. *)
let effective t (c : Counter.t) =
  Reference_switch_set.bits_mask t.topology ~bits:(Prefix.bits c.prefix)
    ~length:(Prefix.length c.prefix)
  land t.active_mask

let rec bump usage mask delta i =
  if mask lsr i <> 0 then begin
    if mask land (1 lsl i) <> 0 then usage.(i) <- usage.(i) + delta;
    bump usage mask delta (i + 1)
  end

let new_counter t prefix =
  Counter.create ~prefix
    ~switches:(Reference_switch_set.switch_set t.topology prefix)

let recompute_usage t =
  Array.fill t.usage 0 (Array.length t.usage) 0;
  for i = 0 to t.n - 1 do
    bump t.usage (effective t t.counters.(i)) 1 0
  done

let make ~spec ~topology ~active counters =
  let k = Topology.switches_per_task topology in
  let t =
    {
      spec;
      topology;
      counters;
      n = Array.length counters;
      switches = Reference_switch_set.switch_set topology spec.Task_spec.filter;
      usage = Array.make k 0;
      alloc = Array.make k 0;
      active_mask = mask_of_set topology active;
      active;
      cover =
        {
          slots = 0;
          node_bits = [||];
          node_len = [||];
          node_t = [||];
          node_cost = [||];
          alive = [||];
          work = [||];
          cheapest = Array.make k Float.infinity;
          built = false;
          cursor = 0;
          ret_s = 0;
          ret_t = 0;
          ret_count = 0;
          best = -1;
          regs = { ret_cost = 0.0; best_ratio = 0.0; bound_acc = 0.0 };
        };
    }
  in
  recompute_usage t;
  t

let create ~spec ~topology =
  let filter = spec.Task_spec.filter in
  let switches = Reference_switch_set.switch_set topology filter in
  let root = Counter.create ~prefix:filter ~switches in
  make ~spec ~topology ~active:switches [| root |]

let spec t = t.spec

let topology t = t.topology

let num_counters t = t.n

(* The first slot in [lo, hi) whose counter starts at or after [addr], or
   [hi]: Prefix.compare orders by first address first. *)
let rec bisect t addr lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if Prefix.first_address t.counters.(mid).Counter.prefix < addr then bisect t addr (mid + 1) hi
    else bisect t addr lo mid
  end

(* The slot holding exactly [p], or -1. *)
let slot t p =
  let i = bisect t (Prefix.first_address p) 0 t.n in
  if i < t.n && Prefix.equal t.counters.(i).Counter.prefix p then i else -1

let find t p =
  let i = slot t p in
  if i < 0 then None else Some t.counters.(i)

(* Replace slots [lo, hi) by the one counter [c] ([lo = hi] inserts it),
   keeping the per-sub-filter usage current. *)
let splice t ~lo ~hi (c : Counter.t) =
  for i = lo to hi - 1 do
    bump t.usage (effective t t.counters.(i)) (-1) 0
  done;
  let n = t.n - (hi - lo) + 1 in
  if n > Array.length t.counters then begin
    let grown = Array.make (2 * Array.length t.counters) c in
    Array.blit t.counters 0 grown 0 t.n;
    t.counters <- grown
  end;
  Array.blit t.counters hi t.counters (lo + 1) (t.n - hi);
  t.counters.(lo) <- c;
  (* Vacated slots let go of the counters they held. *)
  if n < t.n then Array.fill t.counters n (t.n - n) c;
  t.n <- n;
  bump t.usage (effective t c) 1 0

let iter f t =
  for i = 0 to t.n - 1 do
    f t.counters.(i)
  done

let rec fold_down f t i acc = if i < 0 then acc else fold_down f t (i - 1) (f t.counters.(i) acc)

let fold f t acc = fold_down f t (t.n - 1) acc

(* The trie the slots imply, visited bottom-up from node [at], whose
   counters are slots [lo, hi); its left and right children's slots are the
   two sides of one bisect.  A counter on [at] itself is a leaf: the
   counters partition the filter. *)
let rec bottom_up t ~f at lo hi =
  let c = t.counters.(lo) in
  if Prefix.equal c.Counter.prefix at then f at (Some c) []
  else begin
    match Prefix.children at with
    | None -> f at None []
    | Some (l, r) ->
      let mid = bisect t (Prefix.first_address r) lo hi in
      let results =
        if mid = lo then [ bottom_up t ~f r mid hi ]
        else if mid = hi then [ bottom_up t ~f l lo mid ]
        else begin
          let right = bottom_up t ~f r mid hi in
          [ bottom_up t ~f l lo mid; right ]
        end
      in
      f at None results
  end

let fold_bottom_up t ~f = bottom_up t ~f t.spec.Task_spec.filter 0 t.n

let switches t = t.switches

let usage t sw =
  let b = bit_of_switch t.topology sw 0 in
  if b < 0 then 0 else t.usage.(b)

let active t = t.active

let rec prefixes_down t ~first i acc =
  if i < first then acc
  else prefixes_down t ~first (i - 1) (t.counters.(i).Counter.prefix :: acc)

(* A counter's S set holds a switch exactly when its prefix intersects that
   switch's sub-filter: the counters intersecting its address range, one
   contiguous run of slots. *)
let rules_for t sw =
  let b = if Switch_id.Set.mem sw t.active then bit_of_switch t.topology sw 0 else -1 in
  if b < 0 then []
  else begin
    let sub = Topology.subfilter_of_bit t.topology b in
    let lo = Prefix.first_address sub in
    let i = bisect t lo 0 t.n in
    (* The counter holding [lo] may start before it. *)
    let first =
      if i > 0 && Prefix.last_address t.counters.(i - 1).Counter.prefix >= lo then i - 1 else i
    in
    let last = bisect t (Prefix.last_address sub + 1) first t.n - 1 in
    prefixes_down t ~first last []
  end

let clear_volumes (c : Counter.t) = c.volumes <- Switch_id.Map.empty

let seal_volumes (c : Counter.t) = Counter.set_volumes c c.volumes

(* Readings for prefixes no longer monitored are stale: dropped. *)
let rec ingest_switch t sw = function
  | [] -> ()
  | (p, v) :: rest ->
    let i = slot t p in
    if i >= 0 then begin
      let c = t.counters.(i) in
      c.volumes <- Switch_id.Map.add sw v c.volumes
    end;
    ingest_switch t sw rest

let rec ingest_readings t = function
  | [] -> ()
  | (sw, pairs) :: rest ->
    ingest_switch t sw pairs;
    ingest_readings t rest

let ingest t readings =
  (* readings: per switch, (prefix, volume) pairs for this task's rules. *)
  iter clear_volumes t;
  ingest_readings t readings;
  iter seal_volumes t

let allocation allocations sw =
  match Switch_id.Map.find_opt sw allocations with Some v -> v | None -> 0

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
  else if
    t.active_mask land (1 lsl i) <> 0
    && t.usage.(i) >= allocation allocations (Topology.switch_of_bit t.topology i)
  then saturated t allocations (i + 1) (acc lor (1 lsl i))
  else saturated t allocations (i + 1) acc

let bottlenecked t ~allocations =
  set_of_mask t.topology (saturated t allocations 0 0) 0 Switch_id.Set.empty

(* ---- cover(): greedy weighted set cover over ancestor T sets ---- *)

module Cover = struct
  type solution = { ancestors : Prefix.t list; cost : float }

  let grown a n fill used =
    let b = Array.make n fill in
    Array.blit a 0 b 0 used;
    b

  let grow (cv : cover) =
    let n = max 16 (2 * Array.length cv.node_bits) and used = cv.slots in
    cv.node_bits <- grown cv.node_bits n 0 used;
    cv.node_len <- grown cv.node_len n 0 used;
    cv.node_t <- grown cv.node_t n 0 used;
    cv.node_cost <- grown cv.node_cost n 0.0 used;
    cv.alive <- grown cv.alive n false used;
    cv.work <- grown cv.work n false used

  (* The head of the walk lies under the node (bits, len). *)
  let head_under t (cv : cover) ~bits ~len =
    cv.cursor < t.n
    &&
    let p = t.counters.(cv.cursor).Counter.prefix in
    Prefix.covers_bits ~abits:bits ~alen:len ~bbits:(Prefix.bits p) ~blen:(Prefix.length p)

  (* Visit the trie node (bits, len) that the sorted counters imply, the
     head of the walk lying under it, and consume every counter it covers.
     The node's S mask (sub-filters with traffic below it), T mask
     (sub-filters a merge here frees an entry on), cost and counter count
     come back in the registers.  Each structural node takes the next slot
     on entry: slot order is left-first pre-order, exactly the order of
     the candidate list the bottom-up fold built by prepending (it visited
     right subtrees first), which the greedy's tie-break depends on. *)
  let rec visit t (cv : cover) ~bits ~len =
    if cv.cursor < t.n && Prefix.length t.counters.(cv.cursor).Counter.prefix = len then begin
      (* A monitored counter: the partition has nothing below it. *)
      let c = t.counters.(cv.cursor) in
      cv.cursor <- cv.cursor + 1;
      cv.ret_s <- effective t c;
      cv.ret_t <- 0;
      cv.ret_count <- 1;
      cv.regs.ret_cost <- c.score
    end
    else begin
      if cv.slots = Array.length cv.node_bits then grow cv;
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
      cv.node_bits.(slot) <- bits;
      cv.node_len.(slot) <- len;
      cv.node_t.(slot) <- cv.ret_t;
      cv.node_cost.(slot) <- cv.regs.ret_cost;
      cv.alive.(slot) <- cv.ret_t <> 0 && cv.ret_count >= 2
    end

  let build t =
    let cv = t.cover in
    cv.slots <- 0;
    cv.cursor <- 0;
    let filter = t.spec.Task_spec.filter in
    visit t cv ~bits:(Prefix.bits filter) ~len:(Prefix.length filter);
    (* Lower bound on the cost of any candidate freeing each sub-filter;
       stays a valid lower bound across repairs. *)
    Array.fill cv.cheapest 0 (Array.length cv.cheapest) Float.infinity;
    for j = 0 to cv.slots - 1 do
      if cv.alive.(j) then
        for i = 0 to Array.length cv.cheapest - 1 do
          if cv.node_t.(j) land (1 lsl i) <> 0 then
            cv.cheapest.(i) <- Float.min cv.cheapest.(i) cv.node_cost.(j)
        done
    done;
    cv.built <- true;
    t

  (* A merge at [ancestor] turns that subtree into a single counter: every
     candidate inside it disappears; all others remain exactly valid (the
     merged counter's score is the sum of its victims').  The cheapest
     bounds are left untouched — they only ever under-estimate. *)
  let repair_after_merge t ancestor =
    let cv = t.cover in
    let abits = Prefix.bits ancestor and alen = Prefix.length ancestor in
    for j = 0 to cv.slots - 1 do
      if
        cv.alive.(j)
        && Prefix.covers_bits ~abits ~alen ~bbits:cv.node_bits.(j) ~blen:cv.node_len.(j)
      then cv.alive.(j) <- false
    done

  let rec repair_all t = function
    | [] -> ()
    | ancestor :: rest ->
      repair_after_merge t ancestor;
      repair_all t rest

  (* Lower bound on the cost of covering [f]: any solution must include,
     for each sub-filter, a candidate at least as expensive as that
     sub-filter's cheapest. *)
  let bound (cv : cover) f =
    cv.regs.bound_acc <- 0.0;
    for i = 0 to Array.length cv.cheapest - 1 do
      if f land (1 lsl i) <> 0 then cv.regs.bound_acc <- Float.max cv.regs.bound_acc cv.cheapest.(i)
    done;
    cv.regs.bound_acc

  (* The first live slot with the lowest cost per newly covered sub-filter
     (a later slot replaces the best only when [not (best <= ratio)], the
     fold's tie-break), left in [cv.best]; -1 when no slot covers any of
     [uncovered]. *)
  let pick (cv : cover) uncovered =
    cv.best <- -1;
    for j = 0 to cv.slots - 1 do
      if cv.work.(j) then begin
        let gain = popcount (cv.node_t.(j) land uncovered) in
        if gain > 0 then begin
          let ratio = cv.node_cost.(j) /. float_of_int gain in
          if cv.best < 0 || not (cv.regs.best_ratio <= ratio) then begin
            cv.best <- j;
            cv.regs.best_ratio <- ratio
          end
        end
      end
    done

  let rec greedy (cv : cover) chosen cost uncovered =
    if uncovered = 0 then Some { ancestors = chosen; cost }
    else begin
      pick cv uncovered;
      let b = cv.best in
      if b < 0 then None
      else begin
        let bbits = cv.node_bits.(b) and blen = cv.node_len.(b) in
        (* Disjoint ancestors only: drop the pick and every slot nested
           with it. *)
        for j = 0 to cv.slots - 1 do
          let jbits = cv.node_bits.(j) and jlen = cv.node_len.(j) in
          if
            cv.work.(j)
            && (Prefix.covers_bits ~abits:jbits ~alen:jlen ~bbits ~blen
               || Prefix.covers_bits ~abits:bbits ~alen:blen ~bbits:jbits ~blen:jlen)
          then cv.work.(j) <- false
        done;
        greedy cv
          (Prefix.make ~bits:bbits ~length:blen :: chosen)
          (cost +. cv.node_cost.(b))
          (uncovered land lnot cv.node_t.(b))
      end
    end

  (* [solve_mask] with candidates covering the (ex_bits, ex_len) prefix
     ignored; [ex_len < 0] ignores none. *)
  let solve_mask t ~ex_bits ~ex_len f =
    if f = 0 then Some { ancestors = []; cost = 0.0 }
    else begin
      let cv = t.cover in
      for j = 0 to cv.slots - 1 do
        let excluded =
          ex_len >= 0
          && Prefix.covers_bits ~abits:cv.node_bits.(j) ~alen:cv.node_len.(j) ~bbits:ex_bits
               ~blen:ex_len
        in
        cv.work.(j) <- cv.alive.(j) && not excluded
      done;
      greedy cv [] 0.0 f
    end
end

(* ---- merge and divide ---- *)

let sum_volumes _ a b = Some (a +. b)

(* Replace every counter under [ancestor] by one counter on it.  The
   victims are one run of slots in prefix order, so the float sums below
   add in the same order whatever history built the configuration. *)
let merge t ancestor =
  let lo = bisect t (Prefix.first_address ancestor) 0 t.n in
  let hi = bisect t (Prefix.last_address ancestor + 1) lo t.n in
  (* Otherwise a counter on or above [ancestor] already covers it. *)
  if lo < hi && Prefix.is_ancestor_of ancestor t.counters.(lo).Counter.prefix then begin
    let merged = new_counter t ancestor in
    let mean_sum = ref 0.0 and has_mean = ref false in
    for i = lo to hi - 1 do
      let c = t.counters.(i) in
      merged.volumes <- Switch_id.Map.union sum_volumes merged.volumes c.volumes;
      merged.score <- merged.score +. c.score;
      match Ewma.value c.mean with
      | Some v ->
        mean_sum := !mean_sum +. v;
        has_mean := true
      | None -> ()
    done;
    splice t ~lo ~hi merged;
    Counter.set_volumes merged merged.volumes;
    if !has_mean then
      merged.mean <- Ewma.restore ~history:Task_spec.cd_history ~avg:(Some !mean_sum)
  end

let rec apply_merges t = function
  | [] -> ()
  | ancestor :: rest ->
    merge t ancestor;
    apply_merges t rest

let spawn t (parent : Counter.t) p =
  let child = new_counter t p in
  child.Counter.score <- parent.score /. 2.0;
  begin
    match Ewma.value parent.mean with
    | Some m ->
      child.Counter.mean <- Ewma.restore ~history:Task_spec.cd_history ~avg:(Some (m /. 2.0))
    | None -> ()
  end;
  child

(* Replace a live counter by its two children and queue whichever can still
   be divided. *)
let divide t heap ~leaf_length (c : Counter.t) =
  match Prefix.children c.prefix with
  | None -> ()
  | Some (l, r) ->
    let i = slot t c.prefix in
    let left = spawn t c l in
    let right = spawn t c r in
    splice t ~lo:i ~hi:(i + 1) left;
    splice t ~lo:(i + 1) ~hi:(i + 1) right;
    if not (Counter.is_exact left ~leaf_length) then Heap.push heap left;
    if not (Counter.is_exact right ~leaf_length) then Heap.push heap right

(* Covers of two picks or more merged since a test last zeroed it: a
   differential run reads it to know the greedy's drops between picks
   were exercised. *)
let multi_pick_merges = ref 0

let apply_cover t (sol : Cover.solution) =
  (match sol.Cover.ancestors with _ :: _ :: _ -> incr multi_pick_merges | _ -> ());
  apply_merges t sol.Cover.ancestors

(* ---- Algorithm 2 ---- *)

let add_allocation _ v acc = acc + v

let total_allocation allocations = Switch_id.Map.fold add_allocation allocations 0

let shrink_to_fit t =
  (* Merge minimum-cost covers until no switch exceeds its allocation.  If
     a cover cannot be found (single counter left on an overloaded switch),
     collapse to the root filter as a last resort. *)
  let rec go guard =
    let f = overloaded t 0 0 in
    if f <> 0 && guard > 0 then begin
      match Cover.solve_mask (Cover.build t) ~ex_bits:0 ~ex_len:(-1) f with
      | Some ({ Cover.ancestors = _ :: _; _ } as sol) ->
        apply_cover t sol;
        go (guard - 1)
      | Some { Cover.ancestors = []; _ } | None ->
        if t.n > 1 then begin
          merge t t.spec.Task_spec.filter;
          go (guard - 1)
        end
    end
  in
  go (t.n + 8)

let by_score (a : Counter.t) (b : Counter.t) = Float.compare a.score b.score

let push_divisible t heap ~leaf_length =
  for i = 0 to t.n - 1 do
    let c = t.counters.(i) in
    if not (Counter.is_exact c ~leaf_length) then Heap.push heap c
  done

let rec divide_loop t heap ~leaf_length ~improvement_floor budget =
  if budget > 0 then begin
    match Heap.pop heap with
    | None -> ()
    | Some (c : Counter.t) ->
      (* Skip stale heap entries (counters merged away meanwhile). *)
      let i = slot t c.prefix in
      if i < 0 || t.counters.(i) != c then divide_loop t heap ~leaf_length ~improvement_floor budget
      else if c.score <= 0.0 then () (* max score <= 0: nothing worth dividing *)
      else if Prefix.is_exact c.prefix then
        divide_loop t heap ~leaf_length ~improvement_floor budget
      else begin
        let child = Prefix.length c.prefix + 1 in
        let lbits = Prefix.bits c.prefix in
        let rbits = lbits lor (1 lsl (Prefix.address_bits - child)) in
        let s_l =
          Reference_switch_set.bits_mask t.topology ~bits:lbits ~length:child land t.active_mask
        in
        let s_r =
          Reference_switch_set.bits_mask t.topology ~bits:rbits ~length:child land t.active_mask
        in
        let extra = s_l land s_r in
        let f = blocked t extra 0 0 in
        if f = 0 then begin
          (* A divide keeps built candidates conservatively valid: the
             divided counter's score equals its children's sum, S sets are
             unchanged, and T sets can only have grown. *)
          divide t heap ~leaf_length c;
          divide_loop t heap ~leaf_length ~improvement_floor (budget - 1)
        end
        else begin
          (* Candidates are a full pass over the counters, so build them
             once per divide phase and repair them after each merge. *)
          if not t.cover.built then ignore (Cover.build t);
          (* Any cover of f costs at least the per-switch cheapest bound,
             so skip the solve outright when it cannot pay. *)
          if Cover.bound t.cover f +. improvement_floor >= c.score then
            divide_loop t heap ~leaf_length ~improvement_floor budget
          else begin
            match Cover.solve_mask t ~ex_bits:lbits ~ex_len:(Prefix.length c.prefix) f with
            | Some sol when sol.Cover.cost +. improvement_floor < c.score ->
              apply_cover t sol;
              Cover.repair_all t sol.Cover.ancestors;
              (* Re-check: the merge must actually have freed room. *)
              if blocked t extra 0 0 = 0 then divide t heap ~leaf_length c;
              divide_loop t heap ~leaf_length ~improvement_floor (budget - 1)
            | Some _ | None -> divide_loop t heap ~leaf_length ~improvement_floor (budget - 1)
          end
        end
      end
  end

let divide_phase t ~allocations =
  let leaf_length = t.spec.Task_spec.leaf_length in
  let heap = Heap.create ~cmp:by_score in
  push_divisible t heap ~leaf_length;
  t.cover.built <- false;
  (* Paid divides (ones that must merge other counters to free entries)
     must beat the merge cost by a margin, or the configuration churns
     forever swapping near-equal marginal prefixes. *)
  let improvement_floor = t.spec.Task_spec.threshold /. 16.0 in
  divide_loop t heap ~leaf_length ~improvement_floor ((4 * total_allocation allocations) + 64)

(* Record the allocation of every sub-filter for this configure and return
   the mask of those granted at least one entry. *)
let rec load_allocations t allocations i granted =
  if i = Array.length t.alloc then granted
  else begin
    let a = allocation allocations (Topology.switch_of_bit t.topology i) in
    t.alloc.(i) <- a;
    load_allocations t allocations (i + 1) (if a >= 1 then granted lor (1 lsl i) else granted)
  end

let configure t ~allocations =
  let granted = load_allocations t allocations 0 0 in
  if granted <> t.active_mask then begin
    t.active_mask <- granted;
    t.active <- set_of_mask t.topology granted 0 Switch_id.Set.empty;
    recompute_usage t
  end;
  shrink_to_fit t;
  divide_phase t ~allocations

let emit t =
  let module C = Dream_util.Codec in
  String.concat ""
    ([
       "[monitor]\n";
       C.encode (C.int "active") (Switch_id.Set.cardinal t.active);
       String.concat "" (List.map (C.encode (C.int "sw")) (Switch_id.Set.elements t.active));
       C.encode (C.int "counters") t.n;
     ]
    @ List.init t.n (fun i -> Counter.emit ~history:Task_spec.cd_history t.counters.(i)))

(* ---- Score: the scorer on boxed counters ---- *)

let of_counter (spec : Task_spec.t) (c : Counter.t) =
  let threshold = spec.Task_spec.threshold in
  let wildcards = Counter.wildcards c ~leaf_length:spec.Task_spec.leaf_length in
  let denominator = float_of_int (wildcards + 1) in
  (* A prefix whose volume does not exceed the threshold cannot contain a
     heavy hitter or HHH, so drilling under it buys no accuracy: score it
     zero rather than waste TCAM entries on it.  Change detection floors at
     an eighth of the threshold instead: sub-threshold deviations still
     guide the drill toward volatile regions (so leaf-level history exists
     when a change erupts), but dead-calm regions attract no entries.
     A change's deviation persists for several epochs under the EWMA mean,
     which is what lets a post-change drill still catch it. *)
  match spec.Task_spec.kind with
  | Task_spec.Heavy_hitter ->
    if c.Counter.total <= threshold then 0.0 else c.Counter.total /. denominator
  | Task_spec.Hierarchical_heavy_hitter ->
    if c.Counter.total <= threshold then 0.0 else c.Counter.total
  | Task_spec.Change_detection ->
    let deviation = Counter.cd_deviation c in
    if deviation <= threshold /. 8.0 then 0.0 else deviation /. denominator

(* Fresh counters keep their inherited half-of-parent score: their volumes
   have not been measured yet. *)
let rescore spec (c : Counter.t) = if not c.fresh then c.score <- of_counter spec c

let rescore_all t = iter (rescore t.spec) t
