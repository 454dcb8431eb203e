module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Task = Dream_tasks.Task
module Monitor = Dream_tasks.Monitor
module Allocator = Dream_alloc.Allocator
module Dream_allocator = Dream_alloc.Dream_allocator

type violation = { code : string; detail : string }

let to_string v = Printf.sprintf "%s: %s" v.code v.detail

let violation code fmt = Printf.ksprintf (fun detail -> { code; detail }) fmt

let check_allocator ~allocator acc =
  match Allocator.dream allocator with
  | None -> acc
  | Some a -> begin
    match Dream_allocator.check_invariants a with
    | Ok () -> acc
    | Error msg -> violation "allocator-conservation" "%s" msg :: acc
  end

let alloc_on task sw =
  let b = Topology.bit_of_switch (Task.topology task) sw in
  if b < 0 then 0 else (Task.allocations task).(b)

let check_switch ~tasks sw acc =
  let id = Switch.id sw in
  let tcam = Switch.tcam sw in
  let acc =
    if Tcam.used tcam > Tcam.capacity tcam then
      violation "switch-capacity" "switch %d holds %d rules, capacity %d" id (Tcam.used tcam)
        (Tcam.capacity tcam)
      :: acc
    else acc
  in
  let allocated =
    List.fold_left (fun sum task -> sum + alloc_on task id) 0 tasks
  in
  let acc =
    if allocated > Switch.capacity sw then
      violation "switch-capacity" "switch %d allocations sum to %d, capacity %d" id allocated
        (Switch.capacity sw)
      :: acc
    else acc
  in
  (* Every installed rule must belong to a live task: remove_task purges a
     task's rules everywhere, so an unknown owner is leaked state. *)
  let live = List.fold_left (fun s t -> Task.id t :: s) [] tasks in
  List.fold_left
    (fun acc (owner, rules) ->
      if List.mem owner live then acc
      else
        violation "orphan-rules" "switch %d holds %d rules of dead task %d" id
          (List.length rules) owner
        :: acc)
    acc (Tcam.dump tcam)

(* The keys the installed column [have] from [h] shares with the
   monitor's slots [j, stop): one two-cursor merge of the two key-ordered
   runs. *)
let rec shared_keys have h m j stop n =
  if h >= Tcam.count have || j >= stop then n
  else begin
    let installed = Tcam.key have h and configured = Monitor.key m j in
    if installed < configured then shared_keys have (h + 1) m j stop n
    else if installed > configured then shared_keys have h m (j + 1) stop n
    else shared_keys have (h + 1) m (j + 1) stop (n + 1)
  end

(* The checks on one of a task's switches, [sw] at sub-filter bit [b]. *)
let check_task_on ~switches ~up task sw b acc =
  let id = Task.id task in
  let alloc = (Task.allocations task).(b) in
  let used = Task.counters_used task b in
  let acc =
    if used > alloc then
      violation "usage-within-allocation"
        "task %d configures %d counters on switch %d, allocated %d" id used sw alloc
      :: acc
    else acc
  in
  if not (up sw) then acc
  else begin
    let tcam = Switch.tcam switches.(sw) in
    let m = Task.monitor task in
    let first = Monitor.rules_start m sw in
    let stop = Monitor.rules_stop m sw first in
    let installed = Tcam.used_by tcam ~owner:id and configured = stop - first in
    (* Tcam.rules would add a column for an owner with none: guarded, the
       check stays read-only. *)
    let shared =
      if installed = 0 then 0 else shared_keys (Tcam.rules tcam ~owner:id) 0 m first stop 0
    in
    if shared = installed && shared = configured then acc
    else
      violation "rules-match"
        "task %d on switch %d: %d rules installed, %d configured (%d stray, %d missing)" id sw
        installed configured (installed - shared) (configured - shared)
      :: acc
  end

let check_task ~switches ~up task acc =
  let acc =
    if Monitor.is_partition (Task.monitor task) then acc
    else violation "partition" "task %d counters do not partition its filter" (Task.id task) :: acc
  in
  Switch_mask.fold (Task.topology task) (check_task_on ~switches ~up task) (Task.switches task) acc

let check_all ~allocator ~switches ~up ~tasks =
  let acc = check_allocator ~allocator [] in
  let acc = Array.fold_right (fun sw acc -> check_switch ~tasks sw acc) switches acc in
  let acc = List.fold_left (fun acc t -> check_task ~switches ~up t acc) acc tasks in
  List.rev acc
