module Switch_id = Dream_traffic.Switch_id
module Switch_mask = Dream_traffic.Switch_mask

type config = { headroom_fraction : float; policy : Step_policy.t }

let default_config = { headroom_fraction = 0.05; policy = Step_policy.MM }

(* Algorithm 1's constants (Section 6.1): a task is rich once its accuracy
   clears the bound by [hysteresis]; admission grants [min_allocation]
   entries per switch and a step of [initial_step]; steps grow and shrink
   by factor 2 (or addend 4) within [1, 128]. *)
let hysteresis = 0.1
let initial_step = 4
let min_allocation = 1
let step_params =
  { Step_policy.factor = 2.0; addend = 4; min_step = 1; max_step = 128 }

(* [Unset] until the slot's first round: the checkpoint's status code 0. *)
type status = Unset | Rich | Poor | Neutral

type slot = {
  task_id : int;
  mutable alloc : int;
  mutable step : int;
  mutable last_status : status;
  mutable changed : bool; (* resources moved in the previous round *)
  mutable just_flipped : bool; (* status flipped last round: pause growth once *)
}

(* Accuracy reacts to a resource change only after the task re-drills its
   prefixes (several epochs).  Unbounded multiplicative steps compound
   against that feedback lag into violent oscillation, so per-round change
   is additionally enveloped relative to the current allocation: grow at
   most 2x (+8), shrink at most 1/8 (+4) per round. *)
let max_grow slot = max 8 slot.alloc

let max_shrink slot = max 4 (slot.alloc / 8)

type sw_state = {
  switch : Switch_id.t;
  capacity : int;
  target : int; (* headroom target *)
  mutable phantom : int;
  slots : (int, slot) Hashtbl.t; (* task id -> slot *)
  mutable congested : bool;
  mutable last_sp : int;
  mutable last_sr : int;
}

(* One switch's round at a time works in these columns.  They hold an
   entry per slot the switch has, and grow (by doubling) when a slot is
   made, never in a round, so a round allocates nothing.  [held.(i)] is
   the switch's slot for view row [rows.(i)] (row order, so task-id
   order); [poor], [rich] and [takers] list indices into [held]; [caps],
   [shares], [remainders] and [order] are [distribute]'s. *)
type work = {
  mutable held : slot array;
  mutable rows : int array;
  mutable poor : int array;
  mutable rich : int array;
  mutable takers : int array;
  mutable caps : int array;
  mutable shares : int array;
  mutable remainders : float array;
  mutable order : int array;
}

let work () =
  {
    held = [||];
    rows = [||];
    poor = [||];
    rich = [||];
    takers = [||];
    caps = [||];
    shares = [||];
    remainders = [||];
    order = [||];
  }

let grow a n fill = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) fill

(* Room for [n] entries in every column; [slot] fills [held]'s new ones.
   What the columns hold is rewritten by each round before it is read. *)
let reserve sc n slot =
  if Array.length sc.held < n then begin
    let held = grow sc.held n slot in
    Array.blit sc.held 0 held 0 (Array.length sc.held);
    sc.held <- held;
    sc.rows <- grow sc.rows n 0;
    sc.poor <- grow sc.poor n 0;
    sc.rich <- grow sc.rich n 0;
    sc.takers <- grow sc.takers n 0;
    sc.caps <- grow sc.caps n 0;
    sc.shares <- grow sc.shares n 0;
    sc.remainders <- grow sc.remainders n 0.0;
    sc.order <- grow sc.order n 0
  end

type t = {
  config : config;
  states : sw_state array; (* by switch id *)
  work : work; (* a round's columns; never checkpointed *)
}

let create config ~capacities =
  let state i (sw, capacity) =
    if sw <> i then invalid_arg "Dream_allocator.create: switches must be numbered 0 .. n-1";
    if capacity <= 0 then invalid_arg "Dream_allocator.create: capacity must be positive";
    let target = int_of_float (Float.round (config.headroom_fraction *. float_of_int capacity)) in
    {
      switch = sw;
      capacity;
      target;
      phantom = capacity;
      slots = Hashtbl.create 64;
      congested = false;
      last_sp = 0;
      last_sr = 0;
    }
  in
  { config; states = Array.of_list (List.mapi state capacities); work = work () }

let state t sw =
  if sw < 0 || sw >= Array.length t.states then invalid_arg "Dream_allocator: unknown switch";
  t.states.(sw)

let effective_headroom t sw =
  let s = state t sw in
  s.phantom + s.last_sr - s.last_sp

let congested t sw = (state t sw).congested

(* Journal replay: re-apply an admission whose outcome is already decided.
   The original decision depended on transient headroom state (last_sp /
   last_sr) that checkpoints do not carry, so replay must not re-run
   [try_admit] — it applies the recorded outcome unconditionally. *)
(* Every slot is made here, so the round's columns have the room. *)
let add_slot t s slot =
  Hashtbl.replace s.slots slot.task_id slot;
  reserve t.work (Hashtbl.length s.slots) slot

let force_admit t (view : Task_view.t) =
  Switch_mask.iter view.Task_view.topology
    (fun sw _ ->
      let s = state t sw in
      s.phantom <- s.phantom - min_allocation;
      add_slot t s
        {
          task_id = view.Task_view.id;
          alloc = min_allocation;
          step = initial_step;
          last_status = Unset;
          changed = false;
          just_flipped = false;
        })
    view.Task_view.switches

let try_admit t (view : Task_view.t) =
  let ok =
    not
      (Switch_mask.exists view.Task_view.topology
         (fun sw ->
           let s = state t sw in
           effective_headroom t sw < s.target || s.phantom < min_allocation)
         view.Task_view.switches)
  in
  if ok then force_admit t view;
  ok

let release t ~task_id =
  for sw = 0 to Array.length t.states - 1 do
    let s = t.states.(sw) in
    match Hashtbl.find s.slots task_id with
    | slot ->
      s.phantom <- s.phantom + slot.alloc;
      Hashtbl.remove s.slots task_id
    | exception Not_found -> ()
  done

let alloc_on s task_id =
  match Hashtbl.find s.slots task_id with slot -> slot.alloc | exception Not_found -> 0

let allocation_on t ~task_id sw = alloc_on (state t sw) task_id

let rec total_from t task_id sw acc =
  if sw = Array.length t.states then acc
  else total_from t task_id (sw + 1) (acc + alloc_on t.states.(sw) task_id)

let total_of t ~task_id = total_from t task_id 0 0

let rec sum_to a n i acc = if i = n then acc else sum_to a n (i + 1) (acc + a.(i))

(* In-place heap sort of [a.(0 .. n-1)] into the order [before sc]
   defines.  The order sorted here is total, so the result is the one any
   sort (the stable list sort included) gives. *)
let rec sift before sc a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && before sc a.(l) a.(l + 1) then l + 1 else l in
    if before sc a.(i) a.(c) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift before sc a c n
    end
  end

let heap_sort before sc a n =
  for i = (n / 2) - 1 downto 0 do
    sift before sc a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift before sc a 0 last
  done

(* Remainder descending, ties by index ascending. *)
let by_remainder sc i j =
  let a = sc.remainders.(i) and b = sc.remainders.(j) in
  a > b || (a = b && i < j)

(* Largest-remainder proportional split of [total] across the positive
   weights [sc.caps.(0 .. m-1)]: [sc.shares.(0 .. m-1)] gets the integer
   shares (summing to [total]). *)
let distribute sc total m =
  let sum = sum_to sc.caps m 0 0 in
  if sum = 0 || total = 0 then Array.fill sc.shares 0 m 0
  else begin
    for i = 0 to m - 1 do
      let exact = float_of_int (total * sc.caps.(i)) /. float_of_int sum in
      let whole = Float.floor exact in
      sc.shares.(i) <- int_of_float whole;
      sc.remainders.(i) <- exact -. whole;
      sc.order.(i) <- i
    done;
    let extra = total - sum_to sc.shares m 0 0 in
    heap_sort by_remainder sc sc.order m;
    for rank = 0 to min extra m - 1 do
      let i = sc.order.(rank) in
      sc.shares.(i) <- sc.shares.(i) + 1
    done
  end

(* Row [row]'s status on the switch whose overall accuracy is at [cell]. *)
let classify (v : Task_view.table) row cell =
  let overall = v.Task_view.overall.(cell) and bound = v.Task_view.bounds.(row) in
  if overall > bound +. hysteresis then Rich else if overall < bound then Poor else Neutral

let adapt_step policy slot status =
  if slot.changed then begin
    match slot.last_status with
    | Unset -> ()
    | previous when previous = status ->
      (* Growth pauses for one round right after a flip; this damps the
         oscillation around the (hidden) resource target. *)
      if slot.just_flipped then slot.just_flipped <- false
      else slot.step <- Step_policy.grow policy step_params slot.step
    | Rich | Poor | Neutral ->
      slot.step <- Step_policy.shrink policy step_params slot.step;
      slot.just_flipped <- true
  end;
  slot.last_status <- status;
  slot.changed <- false

(* The switch's slots for the view's rows from [row] on, in row order,
   into [sc.held]; returns how many there are in all. *)
let rec hold_rows sc s (v : Task_view.table) row m =
  if row = v.Task_view.rows then m
  else begin
    match Hashtbl.find s.slots v.Task_view.ids.(row) with
    | slot ->
      sc.held.(m) <- slot;
      sc.rows.(m) <- row;
      hold_rows sc s v (row + 1) (m + 1)
    | exception Not_found -> hold_rows sc s v (row + 1) m
  end

let used_at (v : Task_view.table) sc sw i =
  v.Task_view.used.((sc.rows.(i) * v.Task_view.num_switches) + sw)

(* The held slots, by index, that are poor and demanding, into
   [sc.poor]; returns their number. *)
let rec collect_poor sc v sw m i k =
  if i = m then k
  else begin
    let slot = sc.held.(i) in
    if slot.last_status = Poor && used_at v sc sw i + 1 >= slot.alloc then begin
      sc.poor.(k) <- i;
      collect_poor sc v sw m (i + 1) (k + 1)
    end
    else collect_poor sc v sw m (i + 1) k
  end

let rec collect_rich sc m i k =
  if i = m then k
  else if sc.held.(i).last_status = Rich then begin
    sc.rich.(k) <- i;
    collect_rich sc m (i + 1) (k + 1)
  end
  else collect_rich sc m (i + 1) k

(* The held slots using their whole allocation into [sc.takers], with
   their growth envelopes in [sc.caps]; returns their number. *)
let rec collect_takers sc v sw m i k =
  if i = m then k
  else begin
    let slot = sc.held.(i) in
    if used_at v sc sw i + 1 >= slot.alloc then begin
      sc.takers.(k) <- i;
      sc.caps.(k) <- max_grow slot;
      collect_takers sc v sw m (i + 1) (k + 1)
    end
    else collect_takers sc v sw m (i + 1) k
  end

let rec step_sum sc ix n i acc = if i = n then acc else step_sum sc ix n (i + 1) (acc + sc.held.(ix.(i)).step)

let givable slot = min (min slot.step (max_shrink slot)) (max 0 (slot.alloc - min_allocation))

(* Rich tasks cede [sc.shares] of their steps (never below the floor) into
   the pool; returns the pool. *)
let rec cede sc nr j pool =
  if j = nr then pool
  else begin
    let slot = sc.held.(sc.rich.(j)) in
    let share = min sc.shares.(j) (givable slot) in
    if share > 0 then begin
      slot.alloc <- slot.alloc - share;
      slot.changed <- true;
      cede sc nr (j + 1) (pool + share)
    end
    else cede sc nr (j + 1) pool
  end

(* Serve every poor task its full (enveloped) step; returns what is left
   of the pool. *)
let rec grant_all sc np j pool =
  if j = np then pool
  else begin
    let slot = sc.held.(sc.poor.(j)) in
    let grant = min slot.step (max_grow slot) in
    slot.alloc <- slot.alloc + grant;
    slot.changed <- grant > 0;
    grant_all sc np (j + 1) (pool - grant)
  end

(* Serve the poor tasks in [sc.poor]'s order, full steps while the pool
   lasts; returns what is left of it. *)
let rec grant_while sc np j pool =
  if j = np then pool
  else begin
    let slot = sc.held.(sc.poor.(j)) in
    let grant = min (min slot.step (max_grow slot)) pool in
    if grant > 0 then begin
      slot.alloc <- slot.alloc + grant;
      slot.changed <- true;
      grant_while sc np (j + 1) (pool - grant)
    end
    else grant_while sc np (j + 1) pool
  end

(* One round on switch [s]; leaves the switch's slots in [sc.held] for
   [distribute_surplus].  Returns how many there are. *)
let reallocate_switch t s (v : Task_view.table) =
  let sc = t.work and policy = t.config.policy in
  let sw = s.switch and n = v.Task_view.num_switches in
  (* Pair every slot with its task's row; classify and adapt steps. *)
  let m = hold_rows sc s v 0 0 in
  for i = 0 to m - 1 do
    let row = sc.rows.(i) in
    adapt_step policy sc.held.(i) (classify v row ((row * n) + sw))
  done;
  (* Reclaim allocation a task is not even installing rules against (plus
     a 25% expansion margin): it cannot be converted into accuracy there,
     and holding it starves headroom and other tasks. *)
  for i = 0 to m - 1 do
    let slot = sc.held.(i) in
    let used = used_at v sc sw i in
    let keep = max min_allocation (used + max 4 (used / 4)) in
    let surplus = slot.alloc - keep in
    if surplus > 0 then begin
      let reclaim = min surplus (max_shrink slot) in
      slot.alloc <- slot.alloc - reclaim;
      s.phantom <- s.phantom + reclaim
    end
  done;
  (* A poor task only demands counters on switches where it has used its
     whole allocation; elsewhere more counters cannot raise its accuracy. *)
  let np = collect_poor sc v sw m 0 0 and nr = collect_rich sc m 0 0 in
  let sp = step_sum sc sc.poor np 0 0 in
  let sr = step_sum sc sc.rich nr 0 0 in
  s.last_sp <- sp;
  s.last_sr <- sr;
  (* Poor demand is served from idle capacity (phantom above its target)
     first: when the switch has spare entries there is no reason to disturb
     rich tasks' configurations. *)
  let phantom_surplus = max 0 (s.phantom - s.target) in
  let from_surplus = min phantom_surplus sp in
  let pool = if from_surplus > 0 then from_surplus else 0 in
  s.phantom <- s.phantom - pool;
  (* Rich tasks then cede resources to cover the remaining demand plus the
     phantom's deficit, never more than their step and never below the
     floor.  The phantom thus refills continuously from rich tasks even
     under contention, which is what keeps admission control alive. *)
  let phantom_deficit = max 0 (s.target - s.phantom) in
  let demand = sp - pool + phantom_deficit in
  let pool =
    if demand > 0 && sr > 0 then begin
      for j = 0 to nr - 1 do
        sc.caps.(j) <- givable sc.held.(sc.rich.(j))
      done;
      distribute sc (min demand (sum_to sc.caps nr 0 0)) nr;
      cede sc nr 0 pool
    end
    else pool
  in
  if sp = 0 then begin
    s.congested <- false;
    (* Everything collected goes to headroom. *)
    s.phantom <- s.phantom + pool
  end
  else begin
    (* Poor tasks may drain the phantom below its target (they steal from
       the headroom every later admission needs); the phantom keeps only
       what rich supply already replaced. *)
    let borrow = if pool < sp then min s.phantom (sp - pool) else 0 in
    s.phantom <- s.phantom - borrow;
    let pool = pool + borrow in
    s.congested <- pool < sp;
    if pool >= sp then
      (* Serve every poor task its full (enveloped) step; the surplus
         refills the phantom. *)
      s.phantom <- s.phantom + grant_all sc np 0 pool
    else begin
      (* Shortage: serve poor tasks in drop order, the earliest arrival
         (dropped last) first: [sc.poor] is in row order, which is id
         order.  Full steps while the pool lasts; whatever the growth
         envelopes kept the poor tasks from absorbing goes back to
         headroom. *)
      s.phantom <- s.phantom + grant_while sc np 0 pool
    end
  end;
  m

(* "DREAM does not literally maintain a pool of unused TCAM counters as
   headroom.  Rather, it always allocates enough TCAM counters to all tasks
   to maximize accuracy" (Section 4): whatever the phantom holds beyond its
   target flows to tasks that are actually using their whole allocation —
   rich ones included — so accuracy rides well above the bound whenever the
   switch has idle capacity.  [sc.held.(0 .. m-1)] are the switch's
   slots. *)
let distribute_surplus t s (v : Task_view.table) m =
  let sc = t.work in
  let surplus = s.phantom - s.target in
  if surplus > 0 then begin
    let k = collect_takers sc v s.switch m 0 0 in
    if k > 0 then begin
      distribute sc (min surplus (sum_to sc.caps k 0 0)) k;
      for j = 0 to k - 1 do
        let share = sc.shares.(j) in
        if share > 0 then begin
          let slot = sc.held.(sc.takers.(j)) in
          slot.alloc <- slot.alloc + share;
          s.phantom <- s.phantom - share
        end
      done
    end
  end

let reallocate t (v : Task_view.table) =
  for row = 1 to v.Task_view.rows - 1 do
    if v.Task_view.ids.(row - 1) >= v.Task_view.ids.(row) then
      invalid_arg "Dream_allocator.reallocate: rows out of task-id order"
  done;
  for sw = 0 to Array.length t.states - 1 do
    let s = t.states.(sw) in
    distribute_surplus t s v (reallocate_switch t s v)
  done

let check_invariants t =
  Array.fold_left
    (fun acc s ->
      let sw = s.switch in
      match acc with
      | Error _ -> acc
      | Ok () ->
        let total = Hashtbl.fold (fun _ slot sum -> sum + slot.alloc) s.slots 0 in
        if Hashtbl.fold (fun _ slot bad -> bad || slot.alloc < 0) s.slots false then
          Error (Printf.sprintf "switch %d: negative allocation" sw)
        else if s.phantom < 0 then Error (Printf.sprintf "switch %d: negative phantom" sw)
        else if total + s.phantom <> s.capacity then
          Error
            (Printf.sprintf "switch %d: allocations (%d) + phantom (%d) <> capacity (%d)" sw total
               s.phantom s.capacity)
        else Ok ())
    (Ok ()) t.states

let config t = t.config

(* Journal replay: pin a task's allocation on one switch to a recorded
   value.  The delta is settled against the phantom so the conservation
   invariant (allocations + phantom = capacity) survives replay; step /
   status state is freshly initialised — the fine-grained adaptation state
   between checkpoint and crash is the part recovery legitimately loses. *)
let force_allocation t ~task_id ~switch ~alloc =
  if alloc < 0 then invalid_arg "Dream_allocator.force_allocation: negative allocation";
  let s = state t switch in
  let slot =
    match Hashtbl.find_opt s.slots task_id with
    | Some slot -> slot
    | None ->
      let slot =
        {
          task_id;
          alloc = 0;
          step = initial_step;
          last_status = Unset;
          changed = false;
          just_flipped = false;
        }
      in
      add_slot t s slot;
      slot
  in
  s.phantom <- s.phantom + slot.alloc - alloc;
  slot.alloc <- alloc

let codec =
  let open Dream_util.Codec in
  let slot =
    record
      (let+ task_id = field (int "task_id") (fun s -> s.task_id)
       and+ alloc = field (int "alloc") (fun s -> s.alloc)
       and+ step = field (int "step") (fun s -> s.step)
       and+ last_status =
         field
           (int_enum ~what:"slot status" "last_status"
              [ (Unset, 0); (Rich, 1); (Poor, 2); (Neutral, 3) ])
           (fun s -> s.last_status)
       and+ changed = field (bool "changed") (fun s -> s.changed)
       and+ just_flipped = field (bool "just_flipped") (fun s -> s.just_flipped) in
       { task_id; alloc; step; last_status; changed; just_flipped })
  in
  let slots s =
    Hashtbl.fold (fun _ slot acc -> slot :: acc) s.slots []
    |> List.sort (fun a b -> Int.compare a.task_id b.task_id)
  in
  let state =
    record
      (let+ switch = field (int "switch") (fun s -> s.switch)
       and+ capacity = field (int "capacity") (fun s -> s.capacity)
       and+ target = field (int "target") (fun s -> s.target)
       and+ phantom = field (int "phantom") (fun s -> s.phantom)
       and+ congested = field (bool "congested") (fun s -> s.congested)
       and+ last_sp = field (int "last_sp") (fun s -> s.last_sp)
       and+ last_sr = field (int "last_sr") (fun s -> s.last_sr)
       and+ listed = field (repeat "slots" slot) slots in
       let slots = Hashtbl.create 64 in
       List.iter (fun s -> Hashtbl.replace slots s.task_id s) listed;
       { switch; capacity; target; phantom; slots; congested; last_sp; last_sr })
  in
  let of_states config states =
    let work = work () in
    List.iter
      (fun s -> Hashtbl.iter (fun _ slot -> reserve work (Hashtbl.length s.slots) slot) s.slots)
      states;
    { config; states = Array.of_list states; work }
  in
  let params = step_params in
  section "dream_allocator"
    (record
       (let+ headroom_fraction =
          field (float "headroom_fraction") (fun t -> t.config.headroom_fraction)
        and+ () = field (constant (float "hysteresis") hysteresis) ignore
        and+ policy =
          field
            (conv
               (fun s ->
                 match Step_policy.of_string s with
                 | Some p -> p
                 | None -> refuse (Printf.sprintf "unknown step policy %S" s))
               Step_policy.to_string (string "policy"))
            (fun t -> t.config.policy)
        and+ () = field (constant (float "factor") params.Step_policy.factor) ignore
        and+ () = field (constant (int "addend") params.Step_policy.addend) ignore
        and+ () = field (constant (int "min_step") params.Step_policy.min_step) ignore
        and+ () = field (constant (int "max_step") params.Step_policy.max_step) ignore
        and+ () = field (constant (int "initial_step") initial_step) ignore
        and+ () = field (constant (int "min_allocation") min_allocation) ignore
        and+ states = field (repeat "states" state) (fun t -> Array.to_list t.states) in
        List.iteri
          (fun i s ->
            if s.switch <> i then refuse (Printf.sprintf "switch %d out of order" s.switch))
          states;
        of_states { headroom_fraction; policy } states))
