type task_row = {
  epoch : int;
  task : int;
  kind : string;
  accuracy : float;
  satisfied : bool;
  alloc : int;
}

type switch_row = {
  epoch : int;
  switch : int;
  rules : int;
  fetches : int;
  installs : int;
  removals : int;
}

type t = {
  registry : Registry.t;
  trace : Trace.t;
  profile : Profile.t option;
  mutable rev_task_rows : task_row list;
  mutable rev_switch_rows : switch_row list;
}

let create ?profile () =
  { registry = Registry.create (); trace = Trace.create (); profile; rev_task_rows = [];
    rev_switch_rows = [] }

let registry t = t.registry
let trace t = t.trace
let profile t = t.profile

let record_task t row = t.rev_task_rows <- row :: t.rev_task_rows

let record_switch t row = t.rev_switch_rows <- row :: t.rev_switch_rows

let task_rows t = List.rev t.rev_task_rows

let tasks_csv_header = "epoch,task,kind,accuracy,satisfied,alloc"

let switches_csv_header = "epoch,switch,rules,fetches,installs,removals"

let with_out path f =
  match open_out path with
  | oc ->
    let r =
      match f oc with
      | () -> Ok ()
      | exception Sys_error msg -> Error (Printf.sprintf "cannot write %s: %s" path msg)
    in
    close_out oc;
    r
  | exception Sys_error msg -> Error (Printf.sprintf "cannot write %s: %s" path msg)

let ( let* ) = Result.bind

let write_dir t ~dir =
  let path name = Filename.concat dir name in
  let* () =
    with_out (path "trace.jsonl") (fun oc ->
        List.iter
          (fun item ->
            output_string oc (Json.to_string (Json.encode Trace.item_json item));
            output_char oc '\n')
          (Trace.items t.trace))
  in
  let* () =
    with_out (path "metrics.prom") (fun oc -> output_string oc (Registry.to_prometheus t.registry))
  in
  let* () =
    match t.profile with
    | None -> Ok ()
    | Some p ->
      with_out (path "profile.json") (fun oc ->
          output_string oc (Json.to_string (Json.encode Profile.stats_json (Profile.stats p)));
          output_char oc '\n')
  in
  let* () =
    with_out (path "tasks.csv") (fun oc ->
        output_string oc tasks_csv_header;
        output_char oc '\n';
        List.iter
          (fun (r : task_row) ->
            Printf.fprintf oc "%d,%d,%s,%.6f,%d,%d\n" r.epoch r.task r.kind r.accuracy
              (if r.satisfied then 1 else 0)
              r.alloc)
          (task_rows t))
  in
  with_out (path "switches.csv") (fun oc ->
      output_string oc switches_csv_header;
      output_char oc '\n';
      List.iter
        (fun r ->
          Printf.fprintf oc "%d,%d,%d,%d,%d,%d\n" r.epoch r.switch r.rules r.fetches r.installs
            r.removals)
        (List.rev t.rev_switch_rows))
