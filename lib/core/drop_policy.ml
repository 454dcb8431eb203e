module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Task = Dream_tasks.Task
module Allocator = Dream_alloc.Allocator

(* Whether the allocator saw congestion on a switch of [switches], from
   bit [b] on. *)
let rec congested_from allocator topology switches b =
  b < Topology.switches_per_task topology
  && (Switch_mask.mem_bit b switches
      && Allocator.congested allocator (Topology.switch_of_bit topology b)
     || congested_from allocator topology switches (b + 1))

(* One round of [r]'s poor-streak bookkeeping; whether [r] may now be
   dropped. *)
let candidate allocator threshold (r : Runtime.t) =
  let poor = Task.poor r.task in
  let total = Allocator.total_of allocator ~task_id:(Runtime.id r) in
  (* A task still gaining resources is converging, not starved: only a
     poor task whose allocation has stopped growing accumulates a streak
     (paper: dropped tasks are those that "get fewer and fewer resources
     ... and remain poor"). *)
  let growing = total > r.last_alloc_total in
  r.last_alloc_total <- total;
  r.poor_streak <- (if poor && not growing then r.poor_streak + 1 else 0);
  r.poor_streak >= threshold
  && congested_from allocator (Task.topology r.task) (Task.switches r.task) 0

let rec pick allocator threshold runtimes n i best =
  if i = n then best
  else begin
    let r : Runtime.t = runtimes.(i) in
    let best =
      match best with
      | _ when not (candidate allocator threshold r) -> best
      | Some b when Runtime.id b > Runtime.id r -> best
      | Some _ | None -> Some r
    in
    pick allocator threshold runtimes n (i + 1) best
  end

let victim ~allocator ~threshold runtimes n = pick allocator threshold runtimes n 0 None
