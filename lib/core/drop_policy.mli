(** DREAM's drop policy (Section 5): a task that stays poor while its
    allocation stops growing, on a congested switch, is dropped, at most
    one per allocation round. *)

val victim :
  allocator:Dream_alloc.Allocator.t -> threshold:int -> Runtime.t array -> int -> Runtime.t option
(** [victim ~allocator ~threshold runtimes n] runs after an allocation
    round, over the active tasks [runtimes.(0 .. n-1)] in id order.
    Updates every task's poor streak: one more when its smoothed global
    accuracy is below its bound and its total allocation did not grow
    since the last round, zero otherwise.  Returns the task with the
    highest id, the latest to arrive, among those whose streak reached
    [threshold] and that need counters on a congested switch. *)
