(** Runtime invariant checker.

    Nothing in the controller's tick runs it: callers audit between
    ticks through {!Dream_core.Controller.check_invariants_now} (the chaos
    oracle, crash recovery, tests).  The checks are properties the system
    must uphold at every epoch boundary, fault or no fault:

    - the DREAM allocator conserves capacity on every switch (allocations
      plus phantom headroom equal capacity, and headroom is never
      negative);
    - the sum of per-task allocations on a switch never exceeds its
      capacity, and neither does its installed rule count;
    - every task's counters form an exact disjoint partition of its flow
      filter (the divide-and-merge invariant);
    - a task never occupies more TCAM entries on a switch than it was
      allocated;
    - every rule installed on a switch belongs to a live task, and — on
      switches that are currently up — the installed set matches the
      task's configured counters exactly;
    - a torn epoch never leaves a rule count above capacity. *)

type violation = { code : string; detail : string }

val check_all :
  allocator:Dream_alloc.Allocator.t ->
  switches:Dream_switch.Switch.t array ->
  up:(Dream_traffic.Switch_id.t -> bool) ->
  tasks:Dream_tasks.Task.t list ->
  violation list
(** [up] says whether a switch is currently reachable; rule-set equality
    is only asserted on reachable switches (a crashed switch has lost its
    table by design and is reconciled when it returns). *)
