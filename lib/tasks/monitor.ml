module Prefix = Dream_prefix.Prefix
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology
module Ewma = Dream_util.Ewma
module Heap = Dream_util.Heap

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
  mutable cursor : Counter.t list; (* build walk position in the sorted counters *)
  (* Registers the build walk returns a node's summary in, and the
     greedy's running best slot: no tuple per node or step. *)
  mutable ret_s : int;
  mutable ret_t : int;
  mutable ret_count : int;
  mutable best : int;
  regs : float_regs;
}

(* Sub-filter sets are int bitmasks: bit [i] stands for sub-filter [i] of
   the topology and so for the switch it maps to (Topology.switch_of_bit).
   The Switch_id.Set views exist only at the module boundary. *)
type t = {
  spec : Task_spec.t;
  topology : Topology.t;
  table : Counter.t Prefix.Table.t;
  staged : float Switch_id.Map.t Prefix.Table.t;
      (* ingest scratch, cleared per call — hoisted so the hot loop never
         allocates a fresh hash table per task per epoch *)
  switches : Switch_id.Set.t; (* every switch seeing the filter *)
  usage : int array; (* entries per sub-filter, kept incrementally *)
  alloc : int array; (* per sub-filter allocation of the running configure *)
  mutable active_mask : int; (* sub-filters whose switch has a non-zero allocation *)
  mutable active : Switch_id.Set.t; (* the same, as switches *)
  mutable sorted_cache : Counter.t list option; (* counters in prefix order *)
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
let effective t (c : Counter.t) = Topology.prefix_mask t.topology c.prefix land t.active_mask

let rec bump usage mask delta i =
  if mask lsr i <> 0 then begin
    if mask land (1 lsl i) <> 0 then usage.(i) <- usage.(i) + delta;
    bump usage mask delta (i + 1)
  end

let add_counter t (c : Counter.t) =
  assert (not (Prefix.Table.mem t.table c.prefix));
  Prefix.Table.replace t.table c.prefix c;
  t.sorted_cache <- None;
  bump t.usage (effective t c) 1 0

let remove_counter t (c : Counter.t) =
  Prefix.Table.remove t.table c.prefix;
  t.sorted_cache <- None;
  bump t.usage (effective t c) (-1) 0

let new_counter t prefix =
  Counter.create ~prefix
    ~switches:(Topology.switch_set t.topology prefix)
    ~cd_history:t.spec.Task_spec.cd_history

let make ~spec ~topology ~active =
  let k = Topology.switches_per_task topology in
  {
    spec;
    topology;
    table = Prefix.Table.create 64;
    staged = Prefix.Table.create 64;
    switches = Topology.switch_set topology spec.Task_spec.filter;
    usage = Array.make k 0;
    alloc = Array.make k 0;
    active_mask = mask_of_set topology active;
    active;
    sorted_cache = None;
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
        cursor = [];
        ret_s = 0;
        ret_t = 0;
        ret_count = 0;
        best = -1;
        regs = { ret_cost = 0.0; best_ratio = 0.0; bound_acc = 0.0 };
      };
  }

let create ~spec ~topology =
  let t = make ~spec ~topology ~active:(Topology.switch_set topology spec.Task_spec.filter) in
  add_counter t (new_counter t spec.Task_spec.filter);
  t

let spec t = t.spec

let topology t = t.topology

let by_prefix (a : Counter.t) (b : Counter.t) = Prefix.compare a.prefix b.prefix

let cons_counter _ c acc = c :: acc

let counters t =
  match t.sorted_cache with
  | Some cached -> cached
  | None ->
    let sorted = List.sort by_prefix (Prefix.Table.fold cons_counter t.table []) in
    t.sorted_cache <- Some sorted;
    sorted

let num_counters t = Prefix.Table.length t.table

let find t p = Prefix.Table.find_opt t.table p

let switches t = t.switches

let usage t sw =
  let b = bit_of_switch t.topology sw 0 in
  if b < 0 then 0 else t.usage.(b)

let active t = t.active

(* The counters intersecting the address range [lo, hi]: the counters
   partition the filter and are sorted, so they form one contiguous run. *)
let rec rules_in ~lo ~hi = function
  | [] -> []
  | (c : Counter.t) :: rest ->
    if Prefix.last_address c.prefix < lo then rules_in ~lo ~hi rest
    else if Prefix.first_address c.prefix > hi then []
    else c.prefix :: rules_in ~lo ~hi rest

(* A counter's S set holds a switch exactly when its prefix intersects that
   switch's sub-filter. *)
let rules_for t sw =
  let b = if Switch_id.Set.mem sw t.active then bit_of_switch t.topology sw 0 else -1 in
  if b < 0 then []
  else begin
    let sub = Topology.subfilter_of_bit t.topology b in
    rules_in ~lo:(Prefix.first_address sub) ~hi:(Prefix.last_address sub) (counters t)
  end

let ingest t readings =
  (* readings: per switch, (prefix, volume) pairs for this task's rules. *)
  let staged = t.staged in
  Prefix.Table.clear staged;
  List.iter
    (fun (sw, pairs) ->
      List.iter
        (fun (p, v) ->
          let m =
            match Prefix.Table.find_opt staged p with
            | Some m -> m
            | None -> Switch_id.Map.empty
          in
          Prefix.Table.replace staged p (Switch_id.Map.add sw v m))
        pairs)
    readings;
  Prefix.Table.iter
    (fun p c ->
      let volumes =
        match Prefix.Table.find_opt staged p with Some m -> m | None -> Switch_id.Map.empty
      in
      Counter.set_volumes c volumes)
    t.table

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

  type candidates = t

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
  let head_under (cv : cover) ~bits ~len =
    match cv.cursor with
    | (c : Counter.t) :: _ ->
      Prefix.covers_bits ~abits:bits ~alen:len ~bbits:(Prefix.bits c.prefix)
        ~blen:(Prefix.length c.prefix)
    | [] -> false

  (* Visit the trie node (bits, len) that the sorted counters imply, the
     head of the walk lying under it, and consume every counter it covers.
     The node's S mask (sub-filters with traffic below it), T mask
     (sub-filters a merge here frees an entry on), cost and counter count
     come back in the registers.  Each structural node takes the next slot
     on entry: slot order is left-first pre-order, exactly the order of
     the candidate list the bottom-up fold built by prepending (it visited
     right subtrees first), which the greedy's tie-break depends on. *)
  let rec visit t (cv : cover) ~bits ~len =
    match cv.cursor with
    | (c : Counter.t) :: rest when Prefix.length c.prefix = len ->
      (* A monitored counter: the partition has nothing below it. *)
      cv.cursor <- rest;
      cv.ret_s <- effective t c;
      cv.ret_t <- 0;
      cv.ret_count <- 1;
      cv.regs.ret_cost <- c.score
    | _ :: _ | [] ->
      if cv.slots = Array.length cv.node_bits then grow cv;
      let slot = cv.slots in
      cv.slots <- slot + 1;
      let child = len + 1 in
      let rbits = bits lor (1 lsl (Prefix.address_bits - child)) in
      let has_l = head_under cv ~bits ~len:child in
      if has_l then visit t cv ~bits ~len:child;
      let ls = cv.ret_s and lt = cv.ret_t and lcount = cv.ret_count in
      let lcost = cv.regs.ret_cost in
      let has_r = head_under cv ~bits:rbits ~len:child in
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

  let build t =
    let cv = t.cover in
    cv.slots <- 0;
    cv.cursor <- counters t;
    let filter = t.spec.Task_spec.filter in
    visit t cv ~bits:(Prefix.bits filter) ~len:(Prefix.length filter);
    cv.cursor <- [];
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

  let min_cost_bound t f =
    let f = mask_of_set t.topology f in
    if f < 0 then Float.infinity else bound t.cover f

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

  let solve_with t ~exclude f =
    if Switch_id.Set.is_empty f then Some { ancestors = []; cost = 0.0 }
    else begin
      let f = mask_of_set t.topology f in
      (* A switch the task never sees can never be freed. *)
      if f < 0 then None
      else
        match exclude with
        | None -> solve_mask t ~ex_bits:0 ~ex_len:(-1) f
        | Some p -> solve_mask t ~ex_bits:(Prefix.bits p) ~ex_len:(Prefix.length p) f
    end

  let solve t ~exclude f = solve_with (build t) ~exclude f
end

(* ---- merge and divide ---- *)

let descendant_counters t ancestor =
  (* Unsorted on purpose: this runs inside the divide-and-merge loop and
     must not pay for the sorted-counters cache rebuild. *)
  Prefix.Table.fold
    (fun _ (c : Counter.t) acc -> if Prefix.covers ancestor c.prefix then c :: acc else acc)
    t.table []

let[@hot] merge t ancestor =
  match descendant_counters t ancestor with
  | [] -> ()
  | [ c ] when Prefix.equal c.Counter.prefix ancestor ->
    () (* already monitoring exactly this prefix *)
  | victims ->
    (* Sort victims: [descendant_counters] folds a Hashtbl, whose order
       depends on insertion history.  The float sums below must not — a
       restored controller rebuilds its tables in a different order and
       still has to produce bit-identical merges. *)
    let victims = List.sort by_prefix victims in
    let merged = new_counter t ancestor in
    let volumes =
      List.fold_left
        (fun acc (c : Counter.t) ->
          Switch_id.Map.union (fun _ a b -> Some (a +. b)) acc c.volumes)
        Switch_id.Map.empty victims
    in
    let score = List.fold_left (fun acc (c : Counter.t) -> acc +. c.score) 0.0 victims in
    let mean_sum, has_mean =
      List.fold_left
        (fun (acc, has) (c : Counter.t) ->
          match Ewma.value c.mean with Some v -> (acc +. v, true) | None -> (acc, has))
        (0.0, false) victims
    in
    List.iter (remove_counter t) victims;
    add_counter t merged;
    Counter.set_volumes merged volumes;
    merged.Counter.score <- score;
    if has_mean then Ewma.seed merged.Counter.mean mean_sum

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
    | Some m -> Ewma.seed child.Counter.mean (m /. 2.0)
    | None -> ()
  end;
  add_counter t child;
  child

(* Replace a counter by its two children; [None] for an exact prefix. *)
let[@hot] divide t (c : Counter.t) =
  match Prefix.children c.prefix with
  | None -> None
  | Some (l, r) ->
    remove_counter t c;
    let left = spawn t c l in
    let right = spawn t c r in
    Some (left, right)

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
        apply_merges t sol.Cover.ancestors;
        go (guard - 1)
      | Some { Cover.ancestors = []; _ } | None ->
        if num_counters t > 1 then begin
          merge t t.spec.Task_spec.filter;
          go (guard - 1)
        end
    end
  in
  go (num_counters t + 8)

let by_score (a : Counter.t) (b : Counter.t) = Float.compare a.score b.score

let rec push_divisible heap ~leaf_length = function
  | [] -> ()
  | (c : Counter.t) :: rest ->
    if not (Counter.is_exact c ~leaf_length) then Heap.push heap c;
    push_divisible heap ~leaf_length rest

(* Divide [c] and queue whichever children can still be divided. *)
let divide_and_push t heap ~leaf_length c =
  match divide t c with
  | None -> ()
  | Some (l, r) ->
    if not (Counter.is_exact l ~leaf_length) then Heap.push heap l;
    if not (Counter.is_exact r ~leaf_length) then Heap.push heap r

let rec divide_loop t heap ~leaf_length ~improvement_floor budget =
  if budget > 0 then begin
    match Heap.pop heap with
    | None -> ()
    | Some (c : Counter.t) ->
      (* Skip stale heap entries (counters merged away meanwhile). *)
      let live = match find t c.prefix with Some c' -> c' == c | None -> false in
      if not live then divide_loop t heap ~leaf_length ~improvement_floor budget
      else if c.score <= 0.0 then () (* max score <= 0: nothing worth dividing *)
      else if Prefix.is_exact c.prefix then
        divide_loop t heap ~leaf_length ~improvement_floor budget
      else begin
        let child = Prefix.length c.prefix + 1 in
        let lbits = Prefix.bits c.prefix in
        let rbits = lbits lor (1 lsl (Prefix.address_bits - child)) in
        let s_l = Topology.bits_mask t.topology ~bits:lbits ~length:child land t.active_mask in
        let s_r = Topology.bits_mask t.topology ~bits:rbits ~length:child land t.active_mask in
        let extra = s_l land s_r in
        let f = blocked t extra 0 0 in
        if f = 0 then begin
          (* A divide keeps built candidates conservatively valid: the
             divided counter's score equals its children's sum, S sets are
             unchanged, and T sets can only have grown. *)
          divide_and_push t heap ~leaf_length c;
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
              apply_merges t sol.Cover.ancestors;
              Cover.repair_all t sol.Cover.ancestors;
              (* Re-check: the merge must actually have freed room. *)
              if blocked t extra 0 0 = 0 then divide_and_push t heap ~leaf_length c;
              divide_loop t heap ~leaf_length ~improvement_floor (budget - 1)
            | Some _ | None -> divide_loop t heap ~leaf_length ~improvement_floor (budget - 1)
          end
        end
      end
  end

let[@hot] divide_phase t ~allocations =
  let leaf_length = t.spec.Task_spec.leaf_length in
  let heap = Heap.create ~cmp:by_score in
  push_divisible heap ~leaf_length (counters t);
  t.cover.built <- false;
  (* Paid divides (ones that must merge other counters to free entries)
     must beat the merge cost by a margin, or the configuration churns
     forever swapping near-equal marginal prefixes. *)
  let improvement_floor = t.spec.Task_spec.threshold /. 16.0 in
  divide_loop t heap ~leaf_length ~improvement_floor ((4 * total_allocation allocations) + 64)

let recompute_usage t =
  Array.fill t.usage 0 (Array.length t.usage) 0;
  Prefix.Table.iter (fun _ c -> bump t.usage (effective t c) 1 0) t.table

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

let emit w t =
  let module C = Dream_util.Codec in
  C.section w "monitor";
  C.int w "active" (Switch_id.Set.cardinal t.active);
  Switch_id.Set.iter (fun sw -> C.int w "sw" sw) t.active;
  C.int w "counters" (num_counters t);
  List.iter (Counter.emit w) (counters t)

let parse r ~spec ~topology =
  let module C = Dream_util.Codec in
  C.expect_section r "monitor";
  let n = C.int_field r "active" in
  let active = C.repeat n (fun () -> C.int_field r "sw") |> Switch_id.set_of_list in
  if mask_of_set topology active < 0 then
    C.parse_error 0 "monitor: an active switch sees none of the task's sub-filters";
  let t = make ~spec ~topology ~active in
  let n = C.int_field r "counters" in
  ignore
    (C.repeat n (fun () ->
         add_counter t (Counter.parse r ~switch_set:(Topology.switch_set topology))));
  t

let is_partition t =
  let filter = t.spec.Task_spec.filter in
  let covered =
    List.fold_left (fun acc (c : Counter.t) -> acc + Prefix.size c.prefix) 0 (counters t)
  in
  let disjoint =
    let sorted = counters t in
    let rec check = function
      | [] | [ _ ] -> true
      | (a : Counter.t) :: ((b : Counter.t) :: _ as rest) ->
        Prefix.last_address a.prefix < Prefix.first_address b.prefix && check rest
    in
    check sorted
  in
  disjoint
  && covered = Prefix.size filter
  && List.for_all (fun (c : Counter.t) -> Prefix.covers filter c.prefix) (counters t)
