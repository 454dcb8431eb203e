module Topology = Dream_traffic.Topology
module Ewma = Dream_util.Ewma
module Dream_allocator = Dream_alloc.Dream_allocator
module Task_view = Dream_alloc.Task_view

(* The pool is a single pseudo-switch, the one switch of every task's
   topology. *)
let pool_switch = 0

let pool_topology =
  Topology.create (Dream_util.Rng.create 0) ~filter:(Dream_prefix.Prefix.of_string "0.0.0.0/0")
    ~num_switches:1 ~switches_per_task:1

type entry = { task : Sketch_hh.t; smoothed : Ewma.t }

type t = {
  allocator : Dream_allocator.t;
  entries : (int, entry) Hashtbl.t;
}

let create ?(config = Dream_allocator.default_config) ~capacity () =
  {
    allocator = Dream_allocator.create config ~capacities:[ (pool_switch, capacity) ];
    entries = Hashtbl.create 16;
  }

let capacity t = Dream_allocator.capacity t.allocator pool_switch

let allocation t ~id = Dream_allocator.total_of t.allocator ~task_id:id

let view ~id (entry : entry) =
  {
    Task_view.id;
    topology = pool_topology;
    switches = Dream_traffic.Switch_mask.full pool_topology;
    bound = (Sketch_hh.spec entry.task).Dream_tasks.Task_spec.accuracy_bound;
    drop_priority = id;
    overall = (fun _ -> Ewma.value_or entry.smoothed 1.0);
    (* A sketch always exercises every cell it holds. *)
    used = (fun _ -> Sketch_hh.cells entry.task);
  }

let try_admit t ~id task =
  let entry = { task; smoothed = Ewma.create ~history:0.4 } in
  if Dream_allocator.try_admit t.allocator (view ~id entry) then begin
    Hashtbl.replace t.entries id entry;
    Sketch_hh.resize task ~cells:(max 4 (allocation t ~id));
    true
  end
  else false

let release t ~id =
  Dream_allocator.release t.allocator ~task_id:id;
  Hashtbl.remove t.entries id

let active t = Hashtbl.length t.entries

let observe_epoch t aggregate =
  (* Every task sketches the epoch and refreshes its precision estimate. *)
  Hashtbl.iter
    (fun _ entry ->
      Sketch_hh.observe_epoch entry.task aggregate;
      ignore (Ewma.update entry.smoothed (Sketch_hh.estimate_precision entry.task)))
    t.entries;
  (* One DREAM allocation round over the pool, then resize. *)
  let views = Hashtbl.fold (fun id entry acc -> view ~id entry :: acc) t.entries [] in
  Dream_allocator.reallocate t.allocator views;
  Hashtbl.iter
    (fun id entry ->
      let cells = max 4 (allocation t ~id) in
      Sketch_hh.resize entry.task ~cells)
    t.entries

let reports t ~epoch =
  Hashtbl.fold (fun id entry acc -> (id, Sketch_hh.report entry.task ~epoch) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let smoothed_precision t ~id =
  match Hashtbl.find_opt t.entries id with
  | Some entry -> Ewma.value entry.smoothed
  | None -> None
