(** One epoch's budgeted rule sync: bring every switch's installed rules
    for a task in line with the rules its monitor wants.

    The controller runs it in two passes over all tasks — every task's
    removals first ({!remove_stale}), then every task's installs
    ({!install_missing}) — so one task's growth never transiently
    collides with space another task is vacating.  Each pass, per task and
    switch, is one two-cursor merge of the task's TCAM key column
    ({!Dream_switch.Tcam.rules}) against its monitor's run of slots for
    the switch ({!Dream_tasks.Monitor.rules_start}).  Each switch applies at
    most [install_budget] updates per epoch; what does not fit is retried
    next epoch.  Updates are not journalled: fail-over rebuilds rule
    state by auditing the switches. *)

type t

val create :
  planes:Dream_switch.Data_plane.t array ->
  arena:Dream_util.Arena.t ->
  install_budget:int option ->
  recovered:bool array ->
  tallies:Metrics.Tallies.t ->
  t
(** The epoch's sync, with every switch's update budget full.  The budgets
    live in slot 0 of [arena].  Installs onto a switch whose entry in
    [recovered] (indexed by switch id) is set count as recovery
    reinstalls. *)

val remove_stale : t -> Runtime.t list -> int list
(** Pass 1, task by task: delete each task's installed rules its monitor
    no longer wants, while budgets last.  Returns the number deleted per
    task, in list order. *)

val install_missing : t -> Runtime.t list -> unit
(** Pass 2, task by task: install the rules each task's monitor wants
    that are not installed, while budgets last, and record the rules that
    landed in the task's [fresh_rules] and [last_install_counts]. *)
