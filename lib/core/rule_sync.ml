module Topology = Dream_traffic.Topology
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Task = Dream_tasks.Task
module Monitor = Dream_tasks.Monitor
module Ctr = Dream_obs.Registry.Counter

(* A task's installed rules on a switch (its TCAM key column) and its
   desired rules there (a run of its monitor's slots) are both int columns
   in key order, so each pass is one two-cursor merge of the two: no list
   or set is built to diff them.  Each pass looks the column up once per
   switch and edits it at the merge cursor ([Switch.remove_at],
   [Switch.install_at]): the cursor is the edit's index, so no update
   searches the table or the column.  The column is live — a removal
   closes it up under the cursor, an install opens it — so the cursor
   moves past exactly the keys that stay.  Each pass reads the monitor's
   run for the switch it is on (configure ran for every task before pass
   1, and the passes do not touch monitors). *)

type t = {
  switches : Switch.t array;
  per_epoch : int; (* updates a switch may apply per epoch *)
  budgets : int array; (* updates each switch may still apply this epoch *)
  recovered : bool array; (* by switch id: back up as of this epoch *)
  tallies : Metrics.Tallies.t;
  mutable removed : int array; (* the last sync's deletions, by task position *)
}

(* A software switch applies everything, a hardware switch only
   [install_budget] updates per epoch (deferred ones are retried next epoch
   and the affected counters read nothing meanwhile — the cost that made
   the paper abandon hardware switches). *)
let create ~switches ~install_budget ~tallies =
  let per_epoch = match install_budget with Some b -> b | None -> max_int in
  let budgets = Array.make (Array.length switches) per_epoch in
  {
    switches;
    per_epoch;
    budgets;
    recovered = Array.make (Array.length switches) false;
    tallies;
    removed = [||];
  }

let mark_recovered s sw = s.recovered.(sw) <- true

(* Pass 1 on switch [i]: delete the installed rules in [have] that the
   monitor's slots [j, stop) do not hold, while the switch's update budget
   lasts.  [h] is the cursor into [have]. *)
let rec remove_from_column s switch i m have h j stop removed =
  if h >= Tcam.count have || s.budgets.(i) <= 0 then removed
  else begin
    let key = Tcam.key have h in
    if j < stop && Monitor.key m j < key then
      remove_from_column s switch i m have h (j + 1) stop removed
    else if j < stop && Monitor.key m j = key then
      remove_from_column s switch i m have (h + 1) (j + 1) stop removed
    else begin
      match Switch.remove_at switch have h with
      | Ok () ->
        s.budgets.(i) <- s.budgets.(i) - 1;
        (* A removal closes the column up: the next key is at [h]. *)
        remove_from_column s switch i m have h j stop (removed + 1)
      | Error (`Down | `Unreachable) -> remove_from_column s switch i m have (h + 1) j stop removed
    end
  end

let rec remove_from s r i removed =
  if i = Array.length s.switches then removed
  else begin
    let switch = s.switches.(i) in
    let have = Tcam.find (Switch.tcam switch) ~owner:(Runtime.id r) in
    let removed =
      if Tcam.count have = 0 then removed
      else begin
        let m = Task.monitor r.Runtime.task and sw = Switch.id switch in
        let first = Monitor.rules_start m sw in
        remove_from_column s switch i m have 0 first (Monitor.rules_stop m sw first) removed
      end
    in
    remove_from s r (i + 1) removed
  end

(* Append a landed rule to the task's fresh column of bit [b]: installs
   land in key order, so the column stays sorted. *)
let add_fresh (r : Runtime.t) b key =
  let n = r.last_install_counts.(b) in
  let col = r.fresh_rules.(b) in
  let col =
    if n < Array.length col then col
    else begin
      let grown = Array.make (max 8 (2 * n)) 0 in
      for k = 0 to n - 1 do
        grown.(k) <- col.(k)
      done;
      r.fresh_rules.(b) <- grown;
      grown
    end
  in
  col.(n) <- key;
  r.last_install_counts.(b) <- n + 1

(* Pass 2 on switch [i], bit [b]: install the monitor's slots [j, stop)
   missing from [have], while the switch's update budget lasts.  Installs
   onto a switch that recovered this epoch are the full rule-set reinstall
   its crash demands. *)
let rec install_into_column s (r : Runtime.t) switch i b m have h j stop =
  if j < stop && s.budgets.(i) > 0 then begin
    let key = Monitor.key m j in
    if h < Tcam.count have && Tcam.key have h < key then
      install_into_column s r switch i b m have (h + 1) j stop
    else if h < Tcam.count have && Tcam.key have h = key then
      install_into_column s r switch i b m have (h + 1) (j + 1) stop
    else begin
      match Switch.install_at switch have h key with
      | Ok () ->
        s.budgets.(i) <- s.budgets.(i) - 1;
        if s.recovered.(Switch.id switch) then Ctr.incr s.tallies.recovery_reinstalls;
        add_fresh r b key;
        (* The rule opened the column at [h]. *)
        install_into_column s r switch i b m have (h + 1) (j + 1) stop
      | Error `Failed ->
        (* The attempt consumed an update slot; the rule stays desired and
           is retried next epoch. *)
        s.budgets.(i) <- s.budgets.(i) - 1;
        Ctr.incr s.tallies.install_failures;
        install_into_column s r switch i b m have h (j + 1) stop
      | Error (`Capacity | `Down | `Unreachable) ->
        install_into_column s r switch i b m have h (j + 1) stop
    end
  end

let rec install_into s (r : Runtime.t) i =
  if i < Array.length s.switches then begin
    let switch = s.switches.(i) in
    let m = Task.monitor r.task and sw = Switch.id switch in
    let first = Monitor.rules_start m sw in
    let stop = Monitor.rules_stop m sw first in
    if first < stop then begin
      (* Rules are desired only where the monitor sees traffic: a switch
         of the task's topology. *)
      let b = Topology.bit_of_switch (Task.topology r.task) sw in
      install_into_column s r switch i b m
        (Tcam.rules (Switch.tcam switch) ~owner:(Runtime.id r))
        0 first stop
    end;
    install_into s r (i + 1)
  end

let sync s runtimes n =
  Array.fill s.budgets 0 (Array.length s.budgets) s.per_epoch;
  if Array.length s.removed < n then s.removed <- Array.make (max n (2 * Array.length s.removed)) 0;
  for i = 0 to n - 1 do
    s.removed.(i) <- remove_from s runtimes.(i) 0 0
  done;
  for i = 0 to n - 1 do
    let r : Runtime.t = runtimes.(i) in
    Array.fill r.last_install_counts 0 (Array.length r.last_install_counts) 0;
    install_into s r 0
  done;
  Array.fill s.recovered 0 (Array.length s.recovered) false

let removed s i = s.removed.(i)
