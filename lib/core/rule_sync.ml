module Prefix = Dream_prefix.Prefix
module Topology = Dream_traffic.Topology
module Arena = Dream_util.Arena
module Data_plane = Dream_switch.Data_plane
module Task = Dream_tasks.Task
module Ctr = Dream_obs.Registry.Counter

(* A task's installed rules (Tcam order) and its desired rules (monitor
   order) are both lists in Prefix.compare order, so each pass is one
   sorted-merge walk (Prefix.fold_diff) over the two: no set is built to
   diff them.  Each pass asks the monitor for the desired rules of the
   switch it is on (configure ran for every task before pass 1, and the
   passes do not touch monitors), so no task's lists outlive its walk. *)

type t = {
  planes : Data_plane.t array;
  budgets : Arena.ints; (* updates each switch may still apply this epoch *)
  recovered : bool array; (* by switch id *)
  tallies : Metrics.Tallies.t;
}

(* A software switch applies everything, a hardware switch only
   [install_budget] updates per epoch (deferred ones are retried next epoch
   and the affected counters read nothing meanwhile — the cost that made
   the paper abandon hardware switches). *)
let create ~planes ~arena ~install_budget ~recovered ~tallies =
  let budgets = Arena.ints arena ~slot:0 ~len:(Array.length planes) in
  let initial = match install_budget with Some b -> b | None -> max_int in
  for i = 0 to Array.length planes - 1 do
    budgets.{i} <- initial
  done;
  { planes; budgets; recovered; tallies }

(* Pass 1, one stale rule: delete it while the switch's update budget
   lasts.  Counts the deletions. *)
let remove_rule s ~id dp i p removed =
  if s.budgets.{i} > 0 then begin
    match Data_plane.remove dp ~owner:id p with
    | Ok _ ->
      s.budgets.{i} <- s.budgets.{i} - 1;
      removed + 1
    | Error (`Down | `Unreachable) -> removed
  end
  else removed

let rec remove_from s r i removed =
  if i = Array.length s.planes then removed
  else begin
    let dp = s.planes.(i) in
    let id = Runtime.id r in
    let removed =
      Prefix.fold_diff (remove_rule s ~id dp i) (Data_plane.rules_of dp ~owner:id)
        (Task.desired_rules r.task (Data_plane.id dp)) removed
    in
    remove_from s r (i + 1) removed
  end

let remove_stale s r = remove_from s r 0 0

(* Pass 2, one missing rule: install it while the switch's update budget
   lasts.  Collects the rules that landed.  Installs onto a switch that
   recovered this epoch are the full rule-set reinstall its crash
   demands. *)
let install_rule s ~id dp i p added =
  if s.budgets.{i} > 0 then begin
    let sw_id = Data_plane.id dp in
    match Data_plane.install dp ~owner:id p with
    | Ok () ->
      s.budgets.{i} <- s.budgets.{i} - 1;
      if s.recovered.(sw_id) then Ctr.incr s.tallies.recovery_reinstalls;
      Prefix.Set.add p added
    | Error `Failed ->
      (* The attempt consumed an update slot; the rule stays desired and
         is retried next epoch. *)
      s.budgets.{i} <- s.budgets.{i} - 1;
      Ctr.incr s.tallies.install_failures;
      added
    | Error (`Capacity | `Duplicate | `Down | `Unreachable) -> added
  end
  else added

let rec install_into s (r : Runtime.t) i =
  if i < Array.length s.planes then begin
    let dp = s.planes.(i) in
    let id = Runtime.id r in
    let added =
      Prefix.fold_diff (install_rule s ~id dp i)
        (Task.desired_rules r.task (Data_plane.id dp))
        (Data_plane.rules_of dp ~owner:id) Prefix.Set.empty
    in
    if not (Prefix.Set.is_empty added) then begin
      (* Rules land only where the monitor wants some: a switch the task
         sees. *)
      let b = Topology.bit_of_switch (Task.topology r.task) (Data_plane.id dp) in
      r.fresh_rules.(b) <- added;
      r.last_install_counts.(b) <- Prefix.Set.cardinal added
    end;
    install_into s r (i + 1)
  end

let install_missing s (r : Runtime.t) =
  Array.fill r.fresh_rules 0 (Array.length r.fresh_rules) Prefix.Set.empty;
  Array.fill r.last_install_counts 0 (Array.length r.last_install_counts) 0;
  install_into s r 0
