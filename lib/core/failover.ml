module Source = Dream_traffic.Source
module Data_plane = Dream_switch.Data_plane
module Task = Dream_tasks.Task
module Allocator = Dream_alloc.Allocator
module Journal = Dream_recovery.Journal
module C = Dream_util.Codec
module Ctr = Dream_obs.Registry.Counter
module Tr = Dream_obs.Trace

let without id live = List.filter (fun ((r : Runtime.t), _) -> Runtime.id r <> id) live

(* The fold carries the checkpoint brought forward so far and the live
   tasks, each with the epoch its runtime state dates from: the
   checkpoint's for restored tasks, its admission's for replayed ones. *)
let apply ((d : Checkpoint.t), live) entry =
  let next_id id = max d.next_id (id + 1) in
  match entry with
  | Journal.Admit { epoch; task_id; spec; topology; duration; drop_priority; source } ->
    let source = Source.parse (C.reader_of_string source) in
    let r =
      Runtime.create ~config:d.config ~id:task_id ~spec ~topology ~source ~duration
        ~arrived_at:epoch ~drop_priority
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
    if List.exists (fun ((r : Runtime.t), _) -> Runtime.id r = task_id) live then
      Allocator.release d.allocator ~task_id;
    let outcome =
      match cause with Journal.Completed -> Metrics.Completed | Journal.Dropped -> Metrics.Dropped
    in
    let record =
      { Metrics.task_id; kind; outcome; arrived_at; ended_at = epoch; active_epochs; satisfaction;
        mean_accuracy }
    in
    ({ d with records = record :: d.records }, without task_id live)

let replay (d : Checkpoint.t) journal ~at_epoch =
  match List.fold_left apply (d, List.map (fun r -> (r, d.epoch)) d.runtimes) journal with
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

let reconcile ~planes ~runtimes ~(tallies : Metrics.Tallies.t) ~trace ~epoch =
  Array.iter
    (fun dp ->
      let sw_id = Data_plane.id dp in
      let expected =
        List.filter_map
          (fun (r : Runtime.t) ->
            match Task.desired_rules r.task sw_id with
            | [] -> None
            | rules -> Some (Runtime.id r, rules))
          runtimes
      in
      match Data_plane.audit dp ~expected with
      | Ok { Data_plane.strays_removed; missing_installed } ->
        Ctr.add tallies.reconcile_removed strays_removed;
        Ctr.add tallies.reconcile_installed missing_installed;
        if strays_removed + missing_installed > 0 then
          Option.iter
            (fun tr ->
              Tr.event tr ~epoch ~name:"reconcile"
                [ ("switch", Tr.Int sw_id); ("removed", Tr.Int strays_removed);
                  ("installed", Tr.Int missing_installed) ])
            trace
      | Error (`Down | `Unreachable) -> ())
    planes
