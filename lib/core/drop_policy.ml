module Switch_mask = Dream_traffic.Switch_mask
module Task = Dream_tasks.Task
module Task_spec = Dream_tasks.Task_spec
module Allocator = Dream_alloc.Allocator

(* One round of [r]'s poor-streak bookkeeping; whether [r] may now be
   dropped. *)
let candidate allocator threshold (r : Runtime.t) =
  let poor = Task.smoothed_global r.task < (Task.spec r.task).Task_spec.accuracy_bound in
  let total = Allocator.total_of allocator ~task_id:(Runtime.id r) in
  (* A task still gaining resources is converging, not starved: only a
     poor task whose allocation has stopped growing accumulates a streak
     (paper: dropped tasks are those that "get fewer and fewer resources
     ... and remain poor"). *)
  let growing = total > r.last_alloc_total in
  r.last_alloc_total <- total;
  r.poor_streak <- (if poor && not growing then r.poor_streak + 1 else 0);
  r.poor_streak >= threshold
  && Switch_mask.exists (Task.topology r.task) (Allocator.congested allocator)
       (Task.switches r.task)

let rec pick allocator threshold best = function
  | [] -> best
  | (r : Runtime.t) :: rest ->
    let best =
      match best with
      | _ when not (candidate allocator threshold r) -> best
      | Some (b : Runtime.t) when b.drop_priority >= r.drop_priority -> best
      | _ -> Some r
    in
    pick allocator threshold best rest

let victim ~allocator ~threshold runtimes = pick allocator threshold None runtimes
