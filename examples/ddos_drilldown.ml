(* DDoS detection with hierarchical heavy hitters: a botnet subnet ramps
   up traffic toward a victim; an HHH task watching the source space
   localises the attacking prefixes even though no single bot exceeds the
   heavy-hitter threshold.  This example drives the task object directly
   on hand-built traffic, showing the library below the controller layer.

   Run with:  dune exec examples/ddos_drilldown.exe *)

module Rng = Dream_util.Rng
module Prefix = Dream_prefix.Prefix
module Flow = Dream_traffic.Flow
module Epoch_data = Dream_traffic.Epoch_data
module Topology = Dream_traffic.Topology
module Task_spec = Dream_tasks.Task_spec
module Task = Dream_tasks.Task
module Report = Dream_tasks.Report

let filter = Prefix.of_string "172.16.0.0/12"

(* Background: benign sources spread over the /12, none interesting. *)
let background rng =
  List.init 48 (fun _ ->
      let addr = Prefix.first_address filter + Rng.int rng (Prefix.size filter) in
      Flow.make ~addr ~volume:(0.2 +. Rng.float rng 2.0))

(* The botnet: bots inside 172.20.96.0/20, each sending ~1.5 Mb — far below
   the 8 Mb HH threshold, but collectively far above it. *)
let botnet rng ~bots =
  let subnet = Prefix.of_string "172.20.96.0/20" in
  List.init bots (fun _ ->
      let addr = Prefix.first_address subnet + Rng.int rng (Prefix.size subnet) in
      Flow.make ~addr ~volume:(1.0 +. Rng.float rng 1.0))

let () =
  let rng = Rng.create 77 in
  let topology = Topology.create rng ~filter ~num_switches:2 ~switches_per_task:2 in
  let spec =
    Task_spec.make ~kind:Task_spec.Hierarchical_heavy_hitter ~filter ~leaf_length:24
      ~threshold:8.0 ()
  in
  let task = Task.create ~id:0 ~spec ~topology ~storage:(Dream_tasks.Storage.create ()) () in
  let allocations = Array.make (Topology.switches_per_task topology) 128 in
  let workspace = Dream_tasks.Divide_merge.create () in
  let split flows =
    List.filter_map
      (fun (f : Flow.t) ->
        match Topology.switch_of_address topology f.Flow.addr with
        | Some sw -> Some (sw, [ f ])
        | None -> None)
      flows
  in
  for epoch = 0 to 29 do
    (* The attack ramps up from epoch 10. *)
    let bots = if epoch < 10 then 0 else (epoch - 9) * 8 in
    let flows = background rng @ botnet rng ~bots in
    let data = Epoch_data.of_flows ~epoch (split flows) in
    Task.read_traffic task data;
    ignore (Task.estimate task ~epoch);
    let report = Option.get (Task.last_report task) in
    Task.configure task ~workspace ~allocations;
    if epoch mod 5 = 4 then begin
      Printf.printf "epoch %2d (%3d bots): %d HHH prefixes\n" epoch bots (Report.size report);
      List.iter
        (fun (item : Report.item) ->
          Printf.printf "    %-20s %7.1f Mb%s\n"
            (Prefix.to_string item.Report.prefix)
            item.Report.magnitude
            (if Prefix.covers (Prefix.of_string "172.20.96.0/20") item.Report.prefix
                || Prefix.covers item.Report.prefix (Prefix.of_string "172.20.96.0/20")
             then "   <- attack subnet"
             else ""))
        report.Report.items
    end
  done;
  print_newline ();
  print_endline "The HHH report converges onto the botnet's /20 (and prefixes inside it)";
  print_endline "even though every individual bot stays below the heavy-hitter threshold."
