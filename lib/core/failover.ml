module Source = Dream_traffic.Source
module Switch = Dream_switch.Switch
module Tcam = Dream_switch.Tcam
module Task = Dream_tasks.Task
module Monitor = Dream_tasks.Monitor
module Allocator = Dream_alloc.Allocator
module Journal = Dream_recovery.Journal
module C = Dream_util.Codec
module Ctr = Dream_obs.Registry.Counter
module Tr = Dream_obs.Trace

let without id live = List.filter (fun ((r : Runtime.t), _) -> Runtime.id r <> id) live

(* The fold carries the checkpoint brought forward so far and the live
   tasks, each with the epoch its runtime state dates from: the
   checkpoint's for restored tasks, its admission's for replayed ones. *)
let apply pool ((d : Checkpoint.t), live) entry =
  let next_id id = max d.next_id (id + 1) in
  match entry with
  | Journal.Admit { epoch; task_id; spec; topology; duration; source } ->
    let source = C.decode Source.codec source in
    let r =
      Runtime.create ~config:d.config ~pool ~id:task_id ~spec ~topology ~source ~duration
        ~arrived_at:epoch
    in
    Allocator.force_admit d.allocator (Runtime.view r);
    ({ d with next_id = next_id task_id }, (r, epoch) :: without task_id live)
  | Journal.Reject { epoch; task_id; kind } ->
    let records = Metrics.rejected ~task_id ~kind ~epoch :: d.records in
    ({ d with next_id = next_id task_id; records }, live)
  | Journal.Alloc { task_id; switch; alloc; _ } ->
    Allocator.force_allocation d.allocator ~task_id ~switch ~alloc;
    (d, live)
  | Journal.Switch_down _ ->
    ({ d with robustness = { d.robustness with crashes = d.robustness.crashes + 1 } }, live)
  | Journal.Switch_up _ ->
    ({ d with robustness = { d.robustness with recoveries = d.robustness.recoveries + 1 } }, live)
  | Journal.Task_end
      { epoch; task_id; kind; cause; arrived_at; active_epochs; satisfaction; mean_accuracy } ->
    (match List.find_opt (fun ((r : Runtime.t), _) -> Runtime.id r = task_id) live with
    | Some (r, _) ->
      Allocator.release d.allocator ~task_id;
      Runtime.recycle pool ~live:(List.length live) r
    | None -> ());
    let outcome =
      match cause with Journal.Completed -> Metrics.Completed | Journal.Dropped -> Metrics.Dropped
    in
    let record =
      { Metrics.task_id; kind; outcome; arrived_at; ended_at = epoch; active_epochs; satisfaction;
        mean_accuracy }
    in
    ({ d with records = record :: d.records }, without task_id live)

(* Ended tasks hand their storage to admissions later in the suffix, as
   in a live run; the pool ends with the replay. *)
let replay (d : Checkpoint.t) journal ~at_epoch =
  let pool = Runtime.pool () in
  match List.fold_left (apply pool) (d, List.map (fun r -> (r, d.epoch)) d.runtimes) journal with
  | exception C.Parse_error err -> Error ("journal: " ^ C.error_to_string err)
  | exception Invalid_argument msg -> Error ("journal: invalid value: " ^ msg)
  | d, live ->
    (* Traffic kept flowing while the controller was down. *)
    List.iter
      (fun ((r : Runtime.t), from) ->
        for _ = from to at_epoch - 1 do
          ignore (Source.next r.source)
        done)
      live;
    let runtimes =
      List.sort (fun a b -> Int.compare (Runtime.id a) (Runtime.id b)) (List.map fst live)
    in
    let controller_crashes = d.robustness.controller_crashes + 1 in
    Ok { d with epoch = at_epoch; runtimes; robustness = { d.robustness with controller_crashes } }

(* A task's rules on switch [sw]: its monitor's slots [first, stop). *)
let run_on m sw =
  let first = Monitor.rules_start m sw in
  (first, Monitor.rules_stop m sw first)

(* Pass 1 for one owner: delete the keys of its column [have] that the
   monitor's slots [j, stop) lack, one two-cursor merge.  A removal closes
   the column up: the next key is at [h]. *)
let rec remove_strays tcam ~owner have h m j stop removed =
  if h >= Tcam.count have then removed
  else begin
    let key = Tcam.key have h in
    if j < stop && Monitor.key m j < key then
      remove_strays tcam ~owner have h m (j + 1) stop removed
    else if j < stop && Monitor.key m j = key then
      remove_strays tcam ~owner have (h + 1) m (j + 1) stop removed
    else begin
      ignore (Tcam.remove tcam ~owner key);
      remove_strays tcam ~owner have h m j stop (removed + 1)
    end
  end

(* Pass 2 for one owner: install the monitor's slots [j, stop) missing
   from its column [have]; a landed rule opens the column at [h]. *)
let rec install_missing tcam ~owner have h m j stop installed =
  if j >= stop then installed
  else begin
    let key = Monitor.key m j in
    if h < Tcam.count have && Tcam.key have h < key then
      install_missing tcam ~owner have (h + 1) m j stop installed
    else if h < Tcam.count have && Tcam.key have h = key then
      install_missing tcam ~owner have (h + 1) m (j + 1) stop installed
    else begin
      match Tcam.install tcam ~owner key with
      | Ok () -> install_missing tcam ~owner have (h + 1) m (j + 1) stop (installed + 1)
      | Error (`Capacity | `Duplicate) ->
        install_missing tcam ~owner have h m (j + 1) stop installed
    end
  end

(* Strays go first, every rule of an owner no longer running with them,
   so reinstalls can never transiently overflow the table (the wanted
   state fit before the crash).  Recovery runs over the reliable control
   channel (retried until acked), so installs bypass the fault model's
   per-message install failures. *)
let reconcile_switch tcam ~runtimes sw =
  let removed =
    Tcam.fold_owners
      (fun owner have removed ->
        match List.find_opt (fun r -> Runtime.id r = owner) runtimes with
        | Some (r : Runtime.t) ->
          let m = Task.monitor r.task in
          let first, stop = run_on m sw in
          remove_strays tcam ~owner have 0 m first stop removed
        | None ->
          let n = Tcam.count have in
          for h = n - 1 downto 0 do
            ignore (Tcam.remove tcam ~owner (Tcam.key have h))
          done;
          removed + n)
      tcam 0
  in
  let installed =
    List.fold_left
      (fun installed (r : Runtime.t) ->
        let m = Task.monitor r.task in
        let first, stop = run_on m sw in
        if first = stop then installed
        else begin
          let owner = Runtime.id r in
          install_missing tcam ~owner (Tcam.rules tcam ~owner) 0 m first stop installed
        end)
      0 runtimes
  in
  (removed, installed)

let reconcile ~switches ~runtimes ~(tallies : Metrics.Tallies.t) ~trace ~epoch =
  Array.iter
    (fun sw ->
      if not (Switch.down sw || Switch.partitioned sw) then begin
        let sw_id = Switch.id sw in
        let removed, installed = reconcile_switch (Switch.tcam sw) ~runtimes sw_id in
        Ctr.add tallies.reconcile_removed removed;
        Ctr.add tallies.reconcile_installed installed;
        if removed + installed > 0 then
          Option.iter
            (fun tr ->
              Tr.event tr ~epoch ~name:"reconcile"
                [ ("switch", Tr.Int sw_id); ("removed", Tr.Int removed);
                  ("installed", Tr.Int installed) ])
            trace
      end)
    switches
