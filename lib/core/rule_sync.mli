(** Budgeted rule sync: bring every switch's installed rules for a task in
    line with the rules its monitor wants.

    Each epoch's {!sync} runs two passes over all tasks — every task's
    removals first, then every task's installs — so one task's growth
    never transiently collides with space another task is vacating.  Each
    pass, per task and switch, is one two-cursor merge of the task's TCAM
    key column ({!Dream_switch.Tcam.rules}) against its monitor's run of
    slots for the switch ({!Dream_tasks.Monitor.rules_start}).  Each
    switch applies at most [install_budget] updates per epoch; what does
    not fit is retried next epoch.  Updates are not journalled: fail-over
    rebuilds rule state by auditing the switches. *)

type t

val create :
  switches:Dream_switch.Switch.t array ->
  install_budget:int option ->
  tallies:Metrics.Tallies.t ->
  t
(** The rule sync of a controller's whole life. *)

val mark_recovered : t -> Dream_traffic.Switch_id.t -> unit
(** The switch came back up this epoch: the next {!sync}'s installs onto
    it, the reinstall its crash demands, count as [recovery_reinstalls]. *)

val sync : t -> Runtime.t array -> int -> unit
(** [sync s runtimes n], one epoch's sync of [runtimes.(0 .. n-1)]:
    refill every switch's update budget, then delete each task's
    installed rules its monitor no longer wants, then install the rules
    each task's monitor wants that are not installed, task by task and
    while budgets last.  The rules that landed are recorded in each task's
    [fresh_rules] and [last_install_counts], the number deleted in
    {!removed}.  The recovered marks are cleared when the sync ends. *)

val removed : t -> int -> int
(** The rules the last {!sync} deleted for the task at a position of its
    array. *)
