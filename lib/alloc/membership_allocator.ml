module Switch_mask = Dream_traffic.Switch_mask

type rule = Equal | Fixed of int

(* A switch's members are [tasks.(0 .. members - 1)], in ascending id
   order (the order Equal hands out remainders in).  [share] is Fixed's
   per-task reservation; Equal divides [capacity] among the members. *)
type sw_state = {
  capacity : int;
  share : int;
  mutable tasks : int array;
  mutable members : int;
}

type t = { rule : rule; states : sw_state array (* by switch id *) }

let create rule ~capacities =
  (match rule with
  | Fixed k when k <= 0 ->
    invalid_arg "Membership_allocator.create: fraction denominator must be positive"
  | Equal | Fixed _ -> ());
  let state i (sw, capacity) =
    if sw <> i then invalid_arg "Membership_allocator.create: switches must be numbered 0 .. n-1";
    if capacity <= 0 then invalid_arg "Membership_allocator.create: capacity must be positive";
    let share = match rule with Equal -> 0 | Fixed k -> max 1 (capacity / k) in
    { capacity; share; tasks = [||]; members = 0 }
  in
  { rule; states = Array.of_list (List.mapi state capacities) }

let state t sw =
  if sw < 0 || sw >= Array.length t.states then invalid_arg "Membership_allocator: unknown switch";
  t.states.(sw)

(* The position of [id] among a switch's members, or where it would go. *)
let rec rank s id lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if s.tasks.(mid) < id then rank s id (mid + 1) hi else rank s id lo mid
  end

let[@inline] holds s id i = i < s.members && s.tasks.(i) = id

let join s id =
  let i = rank s id 0 s.members in
  if not (holds s id i) then begin
    if s.members = Array.length s.tasks then begin
      let grown = Array.make ((2 * s.members) + 4) 0 in
      Array.blit s.tasks 0 grown 0 s.members;
      s.tasks <- grown
    end;
    Array.blit s.tasks i s.tasks (i + 1) (s.members - i);
    s.tasks.(i) <- id;
    s.members <- s.members + 1
  end

let leave s id =
  let i = rank s id 0 s.members in
  if holds s id i then begin
    Array.blit s.tasks (i + 1) s.tasks i (s.members - i - 1);
    s.members <- s.members - 1
  end

let force_admit t (view : Task_view.t) =
  Switch_mask.iter view.Task_view.topology
    (fun sw _ -> join (state t sw) view.Task_view.id)
    view.Task_view.switches

(* Fixed admits while every switch of the task fits one more share. *)
let full t sw =
  let s = state t sw in
  (s.members + 1) * s.share > s.capacity

let try_admit t (view : Task_view.t) =
  let admit =
    t.rule = Equal
    || not (Switch_mask.exists view.Task_view.topology (full t) view.Task_view.switches)
  in
  if admit then force_admit t view;
  admit

let release t ~task_id =
  for sw = 0 to Array.length t.states - 1 do
    leave t.states.(sw) task_id
  done

(* Equal: capacity / n, the remainder to the members lowest in id order;
   Fixed: the reservation.  0 off the switch's members. *)
let allocation_on t ~task_id sw =
  let s = state t sw in
  let i = rank s task_id 0 s.members in
  if not (holds s task_id i) then 0
  else
    match t.rule with
    | Fixed _ -> s.share
    | Equal -> (s.capacity / s.members) + if i < s.capacity mod s.members then 1 else 0

let rec total_from t task_id sw acc =
  if sw = Array.length t.states then acc
  else total_from t task_id (sw + 1) (acc + allocation_on t ~task_id sw)

let total_of t ~task_id = total_from t task_id 0 0

let section_name = function Equal -> "equal_allocator" | Fixed _ -> "fixed_allocator"

let codec rule =
  let open Dream_util.Codec in
  let share =
    match rule with
    | Fixed _ -> int "share"
    | Equal -> conv (fun _ -> 0) (fun _ -> []) (exactly 0 (int "share"))
  in
  let state =
    record
      (let+ sw = field (int "switch") fst
       and+ capacity = field (int "capacity") (fun (_, s) -> s.capacity)
       and+ share = field share (fun (_, s) -> s.share)
       and+ tasks =
         field (repeat "tasks" (int "task")) (fun (_, s) ->
             Array.to_list (Array.sub s.tasks 0 s.members))
       in
       let tasks = List.sort_uniq Int.compare tasks in
       (sw, { capacity; share; tasks = Array.of_list tasks; members = List.length tasks }))
  in
  section (section_name rule)
    (record
       (let+ states =
          field (repeat "states" state) (fun t ->
              List.mapi (fun i s -> (i, s)) (Array.to_list t.states))
        in
        List.iteri
          (fun i (sw, _) -> if sw <> i then refuse (Printf.sprintf "switch %d out of order" sw))
          states;
        { rule; states = Array.of_list (List.map snd states) }))
