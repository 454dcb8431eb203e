(* Change detection across switches: steady sources suddenly shift volume
   (a flash crowd on one source, an outage on another), and a CD task
   flags the sources whose volume deviates from its history by more than
   the threshold.  Traffic is hand-built so the changes are exact.

   Run with:  dune exec examples/change_hunt.exe *)

module Rng = Dream_util.Rng
module Prefix = Dream_prefix.Prefix
module Flow = Dream_traffic.Flow
module Epoch_data = Dream_traffic.Epoch_data
module Topology = Dream_traffic.Topology
module Task_spec = Dream_tasks.Task_spec
module Task = Dream_tasks.Task
module Report = Dream_tasks.Report

let filter = Prefix.of_string "192.0.0.0/12"

(* Ten steady services spread across the /12; service 2 flash-crowds at
   epoch 15, service 7 goes dark at epoch 22. *)
let service_addr i =
  Prefix.first_address filter + (i * (Prefix.size filter / 10)) + (i * 131) + 77

(* A little volume noise keeps per-prefix deviations non-zero, which is
   what steers the CD drill-down toward the services before any change
   erupts (perfectly flat traffic would leave the monitor at the root). *)
let service_volume rng ~epoch i =
  let noise = 0.88 +. Rng.float rng 0.24 in
  let base =
    match i with
    | 2 when epoch >= 15 -> 26.0 (* flash crowd: +20 Mb over its history *)
    | 7 when epoch >= 22 -> 0.0 (* outage: -12 Mb *)
    | 2 -> 6.0
    | 7 -> 12.0
    | _ -> 3.0 +. float_of_int i
  in
  base *. noise

let () =
  let rng = Rng.create 9 in
  let topology = Topology.create rng ~filter ~num_switches:4 ~switches_per_task:4 in
  let spec =
    Task_spec.make ~kind:Task_spec.Change_detection ~filter ~leaf_length:24 ~threshold:8.0 ()
  in
  let task = Task.create ~id:0 ~spec ~topology ~storage:(Dream_tasks.Storage.create ()) () in
  let allocations = Array.make (Topology.switches_per_task topology) 64 in
  let workspace = Dream_tasks.Divide_merge.create () in
  for epoch = 0 to 29 do
    let flows =
      List.init 10 (fun i ->
          Flow.make ~addr:(service_addr i) ~volume:(service_volume rng ~epoch i))
    in
    let grouped =
      List.filter_map
        (fun (f : Flow.t) ->
          match Topology.switch_of_address topology f.Flow.addr with
          | Some sw -> Some (sw, [ f ])
          | None -> None)
        flows
    in
    let data = Epoch_data.of_flows ~epoch grouped in
    Task.read_traffic task data;
    ignore (Task.estimate task ~epoch);
    let report = Option.get (Task.last_report task) in
    Task.configure task ~workspace ~allocations;
    if Report.size report > 0 then begin
      Printf.printf "epoch %2d: %d significant change(s)\n" epoch (Report.size report);
      List.iter
        (fun (item : Report.item) ->
          Printf.printf "    %-20s deviates %6.1f Mb from its mean\n"
            (Prefix.to_string item.Report.prefix)
            item.Report.magnitude)
        report.Report.items
    end
  done;
  print_newline ();
  print_endline "The flash crowd (epoch 15) and the outage (epoch 22) both surface as";
  print_endline "volume deviations beyond the 8 Mb threshold; steady services stay quiet."
