(* The list-based Algorithm 1 that Dream_alloc.Dream_allocator ran before
   its round moved onto reused columns, kept as the differential oracle:
   every round builds its (slot, view, status) triples, [filter_map]s and
   sorts lists, and reads each task through closures over the view
   table's row.  Its checkpoint text is the allocator's, field for field.
   Only the tests use it. *)

module Switch_id = Dream_traffic.Switch_id
module Switch_mask = Dream_traffic.Switch_mask
module Step_policy = Dream_alloc.Step_policy
module Task_view = Dream_alloc.Task_view

type config = Dream_alloc.Dream_allocator.config = {
  headroom_fraction : float;
  policy : Step_policy.t;
}

(* Algorithm 1's constants (Section 6.1): a task is rich once its accuracy
   clears the bound by [hysteresis]; admission grants [min_allocation]
   entries per switch and a step of [initial_step]; steps grow and shrink
   by factor 2 (or addend 4) within [1, 128]. *)
let hysteresis = 0.1
let initial_step = 4
let min_allocation = 1
let step_params =
  { Step_policy.factor = 2.0; addend = 4; min_step = 1; max_step = 128 }

type status = Rich | Poor | Neutral

type slot = {
  task_id : int;
  mutable alloc : int;
  mutable step : int;
  mutable last_status : status option;
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

type t = { config : config; states : sw_state array (* by switch id *) }

(* A task as the old round saw it. *)
type view = {
  id : int;
  bound : float;
  overall : Switch_id.t -> float;
  used : Switch_id.t -> int;
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
  { config; states = Array.of_list (List.mapi state capacities) }

let state t sw =
  if sw < 0 || sw >= Array.length t.states then
    invalid_arg (Printf.sprintf "Dream_allocator: unknown switch %d" sw);
  t.states.(sw)

let effective_headroom t sw =
  let s = state t sw in
  s.phantom + s.last_sr - s.last_sp

let congested t sw = (state t sw).congested

(* Journal replay: re-apply an admission whose outcome is already decided.
   The original decision depended on transient headroom state (last_sp /
   last_sr) that checkpoints do not carry, so replay must not re-run
   [try_admit] — it applies the recorded outcome unconditionally. *)
let force_admit t (view : Task_view.t) =
  Switch_mask.iter view.Task_view.topology
    (fun sw _ ->
      let s = state t sw in
      s.phantom <- s.phantom - min_allocation;
      Hashtbl.replace s.slots view.Task_view.id
        {
          task_id = view.Task_view.id;
          alloc = min_allocation;
          step = initial_step;
          last_status = None;
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
  Array.iter
    (fun s ->
      match Hashtbl.find_opt s.slots task_id with
      | Some slot ->
        s.phantom <- s.phantom + slot.alloc;
        Hashtbl.remove s.slots task_id
      | None -> ())
    t.states

let alloc_on s task_id =
  match Hashtbl.find_opt s.slots task_id with Some slot -> slot.alloc | None -> 0

let allocation_on t ~task_id sw = alloc_on (state t sw) task_id

let rec total_from t task_id sw acc =
  if sw = Array.length t.states then acc
  else total_from t task_id (sw + 1) (acc + alloc_on t.states.(sw) task_id)

let total_of t ~task_id = total_from t task_id 0 0

(* Largest-remainder proportional split of [total] across positive
   [weights]; returns the integer shares (summing to [total]). *)
let distribute total weights =
  let sum = List.fold_left ( + ) 0 weights in
  if sum = 0 || total = 0 then List.map (fun _ -> 0) weights
  else begin
    let exact = List.map (fun w -> float_of_int (total * w) /. float_of_int sum) weights in
    let floors = List.map (fun x -> int_of_float (Float.floor x)) exact in
    let given = List.fold_left ( + ) 0 floors in
    let remainders =
      List.mapi (fun i x -> (i, x -. Float.floor x)) exact
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    in
    let extra = total - given in
    let bumped = Array.of_list floors in
    List.iteri (fun rank (i, _) -> if rank < extra then bumped.(i) <- bumped.(i) + 1) remainders;
    Array.to_list bumped
  end

let classify view overall =
  if overall > view.bound +. hysteresis then Rich
  else if overall < view.bound then Poor
  else Neutral

let adapt_step policy slot status =
  if slot.changed then begin
    match slot.last_status with
    | Some previous when previous = status ->
      (* Growth pauses for one round right after a flip; this damps the
         oscillation around the (hidden) resource target. *)
      if slot.just_flipped then slot.just_flipped <- false
      else slot.step <- Step_policy.grow policy step_params slot.step
    | Some _ ->
      slot.step <- Step_policy.shrink policy step_params slot.step;
      slot.just_flipped <- true
    | None -> ()
  end;
  slot.last_status <- Some status;
  slot.changed <- false

let reallocate_switch t s views =
  let policy = t.config.policy in
  (* Pair every slot with its task view; classify and adapt steps. *)
  let classified =
    List.filter_map
      (fun view ->
        match Hashtbl.find_opt s.slots view.id with
        | Some slot ->
          let status = classify view (view.overall s.switch) in
          adapt_step policy slot status;
          Some (slot, view, status)
        | None -> None)
      views
  in
  (* Reclaim allocation a task is not even installing rules against (plus
     a 25% expansion margin): it cannot be converted into accuracy there,
     and holding it starves headroom and other tasks. *)
  List.iter
    (fun (slot, view, _) ->
      let used = view.used s.switch in
      let keep = max min_allocation (used + max 4 (used / 4)) in
      let surplus = slot.alloc - keep in
      if surplus > 0 then begin
        let reclaim = min surplus (max_shrink slot) in
        slot.alloc <- slot.alloc - reclaim;
        s.phantom <- s.phantom + reclaim
      end)
    classified;
  (* A poor task only demands counters on switches where it has used its
     whole allocation; elsewhere more counters cannot raise its accuracy. *)
  let demanding (slot, view, _) =
    view.used s.switch + 1 >= slot.alloc
  in
  let poor = List.filter (fun ((_, _, st) as e) -> st = Poor && demanding e) classified in
  let rich = List.filter (fun (_, _, st) -> st = Rich) classified in
  let sp = List.fold_left (fun acc (slot, _, _) -> acc + slot.step) 0 poor in
  let sr = List.fold_left (fun acc (slot, _, _) -> acc + slot.step) 0 rich in
  s.last_sp <- sp;
  s.last_sr <- sr;
  (* Poor demand is served from idle capacity (phantom above its target)
     first: when the switch has spare entries there is no reason to disturb
     rich tasks' configurations. *)
  let pool = ref 0 in
  let phantom_surplus = max 0 (s.phantom - s.target) in
  let from_surplus = min phantom_surplus sp in
  if from_surplus > 0 then begin
    s.phantom <- s.phantom - from_surplus;
    pool := from_surplus
  end;
  (* Rich tasks then cede resources to cover the remaining demand plus the
     phantom's deficit, never more than their step and never below the
     floor.  The phantom thus refills continuously from rich tasks even
     under contention, which is what keeps admission control alive. *)
  let phantom_deficit = max 0 (s.target - s.phantom) in
  let demand = (sp - !pool) + phantom_deficit in
  if demand > 0 && sr > 0 then begin
    let givable (slot, _, _) =
      min (min slot.step (max_shrink slot)) (max 0 (slot.alloc - min_allocation))
    in
    let caps = List.map givable rich in
    let collectable = min demand (List.fold_left ( + ) 0 caps) in
    let shares = distribute collectable caps in
    List.iter2
      (fun ((slot, _, _) as entry) share ->
        let share = min share (givable entry) in
        if share > 0 then begin
          slot.alloc <- slot.alloc - share;
          slot.changed <- true;
          pool := !pool + share
        end)
      rich shares
  end;
  if sp = 0 then begin
    s.congested <- false;
    (* Everything collected goes to headroom. *)
    s.phantom <- s.phantom + !pool
  end
  else begin
    (* Poor tasks may drain the phantom below its target (they steal from
       the headroom every later admission needs); the phantom keeps only
       what rich supply already replaced. *)
    if !pool < sp then begin
      let borrow = min s.phantom (sp - !pool) in
      s.phantom <- s.phantom - borrow;
      pool := !pool + borrow
    end;
    s.congested <- !pool < sp;
    if !pool >= sp then begin
      (* Serve every poor task its full (enveloped) step; the surplus
         refills the phantom. *)
      List.iter
        (fun (slot, _, _) ->
          let grant = min slot.step (max_grow slot) in
          slot.alloc <- slot.alloc + grant;
          slot.changed <- grant > 0;
          pool := !pool - grant)
        poor;
      s.phantom <- s.phantom + !pool
    end
    else begin
      (* Shortage: serve poor tasks in drop order (tasks drop latest
         arrival first, so the lowest id is served first), full steps
         while the pool lasts. *)
      let by_id = List.sort (fun (_, a, _) (_, b, _) -> Int.compare a.id b.id) poor in
      List.iter
        (fun (slot, _, _) ->
          let grant = min (min slot.step (max_grow slot)) !pool in
          if grant > 0 then begin
            slot.alloc <- slot.alloc + grant;
            slot.changed <- true;
            pool := !pool - grant
          end)
        by_id;
      (* Whatever the growth envelopes kept the poor tasks from absorbing
         goes back to headroom. *)
      s.phantom <- s.phantom + !pool
    end
  end

(* "DREAM does not literally maintain a pool of unused TCAM counters as
   headroom.  Rather, it always allocates enough TCAM counters to all tasks
   to maximize accuracy" (Section 4): whatever the phantom holds beyond its
   target flows to tasks that are actually using their whole allocation —
   rich ones included — so accuracy rides well above the bound whenever the
   switch has idle capacity. *)
let distribute_surplus s views =
  let surplus = s.phantom - s.target in
  if surplus > 0 then begin
    let takers =
      List.filter_map
        (fun view ->
          match Hashtbl.find_opt s.slots view.id with
          | Some slot when view.used s.switch + 1 >= slot.alloc -> Some slot
          | Some _ | None -> None)
        views
    in
    if takers <> [] then begin
      let caps = List.map max_grow takers in
      let total = min surplus (List.fold_left ( + ) 0 caps) in
      let shares = distribute total caps in
      List.iter2
        (fun slot share ->
          if share > 0 then begin
            slot.alloc <- slot.alloc + share;
            s.phantom <- s.phantom - share
          end)
        takers shares
    end
  end

(* The table's rows as the old round's views, in row order. *)
let views_of (v : Task_view.table) =
  let n = v.Task_view.num_switches in
  List.init v.Task_view.rows (fun row ->
      {
        id = v.Task_view.ids.(row);
        bound = v.Task_view.bounds.(row);
        overall = (fun sw -> v.Task_view.overall.((row * n) + sw));
        used = (fun sw -> v.Task_view.used.((row * n) + sw));
      })

let reallocate t table =
  let views = views_of table in
  Array.iter
    (fun s ->
      reallocate_switch t s views;
      distribute_surplus s views)
    t.states

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
          last_status = None;
          changed = false;
          just_flipped = false;
        }
      in
      Hashtbl.replace s.slots task_id slot;
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
              [ (None, 0); (Some Rich, 1); (Some Poor, 2); (Some Neutral, 3) ])
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
        { config = { headroom_fraction; policy }; states = Array.of_list states }))
