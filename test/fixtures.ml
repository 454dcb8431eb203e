(* Shared test fixtures: the 4-bit worked example (a Figure-5-style trie
   with hand-checked HH/HHH/CD ground truth) and a manual task-driving
   harness used by the estimator and task tests. *)

module Rng = Dream_util.Rng
module Prefix = Dream_prefix.Prefix
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Flow = Dream_traffic.Flow
module Aggregate = Dream_traffic.Aggregate
module Epoch_data = Dream_traffic.Epoch_data
module Task_spec = Dream_tasks.Task_spec
module Task = Dream_tasks.Task
module Monitor = Monitor_views
module Tcam = Dream_switch.Tcam
module Score = Dream_tasks.Score

(* A qcheck property as an alcotest case drawing from one fixed seed, so
   a tier-1 run checks the same cases every time. *)
let seeded_qcheck test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2014 |]) test
[@@lint.allow "determinism-random"]

(* Fresh task storage, as a bare task or a restore starts on. *)
let fresh_storage () = Dream_tasks.Storage.create ()

(* The divide-and-merge workspace the tasks driven here configure on, one
   for the whole test binary as a controller keeps one for all its tasks. *)
let workspace = Dream_tasks.Divide_merge.create ()

(* A 4-bit universe: filter 10.0.0.0/28, leaves at /32, threshold 10.
   Two switches split it at /29 (0*** vs 1***, in some switch order). *)
let filter = Prefix.of_string "10.0.0.0/28"

let leaf bits = Prefix.make ~bits:(Prefix.bits filter lor bits) ~length:32

let sub bits length = Prefix.make ~bits:(Prefix.bits filter lor (bits lsl (32 - length))) ~length

let topology () = Topology.create (Rng.create 1) ~filter ~num_switches:2 ~switches_per_task:2

let spec ?(kind = Task_spec.Heavy_hitter) ?(threshold = 10.0) () =
  Task_spec.make ~kind ~filter ~leaf_length:32 ~threshold ()

(* Example volumes:
     0000:12  0001:2  0100:6  0101:7  0111:11  1010:3  1100:4  1111:1
   True HHs (>10):   {0000, 0111}
   True HHHs:        {0000, 010*, 0111}
     - 010* because 6+7=13 > 10 with neither child over 10
     - 011* residual 0, 00** residual 2, 01** residual 0, 0*** residual 2,
       1*** residual 8, root residual 10 (not > 10). *)
let example_volumes =
  [
    (0b0000, 12.0);
    (0b0001, 2.0);
    (0b0100, 6.0);
    (0b0101, 7.0);
    (0b0111, 11.0);
    (0b1010, 3.0);
    (0b1100, 4.0);
    (0b1111, 1.0);
  ]

let true_hh_leaves = [ 0b0000; 0b0111 ]

let true_hhh_prefixes () = [ leaf 0b0000; sub 0b010 31; leaf 0b0111 ]

let flows_of volumes =
  List.map (fun (bits, volume) -> Flow.make ~addr:(Prefix.bits (leaf bits)) ~volume) volumes

let epoch_data ?(volumes = example_volumes) ~epoch () =
  let topo = topology () in
  Epoch_data.of_flows ~epoch
    (List.filter_map
       (fun (f : Flow.t) ->
         match Topology.switch_of_address topo f.Flow.addr with
         | Some sw -> Some (sw, [ f ])
         | None -> None)
       (flows_of volumes))

(* [n] entries on every switch the task sees, per sub-filter bit. *)
let allocations_of task n =
  let switches = Task.switches task in
  Array.init (Topology.switches_per_task (Task.topology task)) (fun b ->
      if Switch_mask.mem_bit b switches then n else 0)

(* Feed one epoch of data through a task object (fetch, report, estimate,
   smooth, configure), returning the report and the raw estimate. *)
let drive_task task ~data ~allocations ~epoch =
  Task.read_traffic task data;
  let estimate = Task.estimate task ~epoch in
  Task.smooth task estimate;
  let report = Option.get (Task.last_report task) in
  Task.configure task ~workspace ~allocations;
  (report, estimate)

(* ---- List views of a task's rules, for checks ---- *)

(* The prefixes of a monitor's key run on a switch: its rules there, in
   key order. *)
let rules_for m sw =
  let first = Monitor.rules_start m sw in
  List.init (Monitor.rules_stop m sw first - first) (fun i -> Monitor.prefix m (first + i))

(* The prefixes of an owner's TCAM column, in key order.  Guarded like
   rule sync: Tcam.rules would add a column for an owner with none. *)
let tcam_rules tcam ~owner =
  if Tcam.used_by tcam ~owner = 0 then []
  else begin
    let col = Tcam.rules tcam ~owner in
    List.init (Tcam.count col) (fun i -> Prefix.of_key (Tcam.key col i))
  end

(* Readings as lists per switch: {!Monitor.clear_readings}, one
   {!Monitor.ingest} per listed switch, {!Monitor.seal_readings}. *)
let ingest_readings m readings =
  Monitor.clear_readings m;
  List.iter
    (fun (sw, pairs) ->
      let keys = Array.of_list (List.map (fun (p, _) -> Prefix.key p) pairs) in
      let vols = Array.of_list (List.map snd pairs) in
      Monitor.ingest m sw ~keys ~vols (Array.length keys))
    readings;
  Monitor.seal_readings m

(* Every switch's rules paired with their volume in the epoch: the
   readings a fault-free fetch returns, as lists. *)
let readings_of m data =
  Switch_mask.fold (Monitor.topology m)
    (fun sw _ acc ->
      let agg = Epoch_data.switch_view data sw in
      (sw, List.map (fun q -> (q, Aggregate.volume agg q)) (rules_for m sw)) :: acc)
    (Monitor.switches m) []

(* Run the example for [epochs] epochs with [per_switch] counters. *)
let converged_task ?kind ?threshold ~per_switch ~epochs () =
  let task =
    Task.create ~id:0 ~spec:(spec ?kind ?threshold ()) ~topology:(topology ())
      ~storage:(fresh_storage ()) ()
  in
  let allocations = allocations_of task per_switch in
  let last = ref None in
  for epoch = 0 to epochs - 1 do
    let data = epoch_data ~epoch () in
    last := Some (drive_task task ~data ~allocations ~epoch)
  done;
  (task, !last)

(* The set of prefixes a report names. *)
let report_prefixes (r : Dream_tasks.Report.t) =
  Prefix.Set.of_list (List.map (fun (i : Dream_tasks.Report.item) -> i.prefix) r.items)

(* ---- What a figure prints and returns ---- *)

(* [f ()] and the text it printed through [Table.out]: the formatter
   writes into a buffer meanwhile, and back to its own output after. *)
let printed f =
  let ppf = Dream_sim.Table.out in
  let out, flush = Format.pp_get_formatter_output_functions ppf () in
  let buf = Buffer.create 4096 in
  Format.pp_print_flush ppf ();
  Format.pp_set_formatter_output_functions ppf (Buffer.add_substring buf) ignore;
  let result =
    Fun.protect f ~finally:(fun () ->
        Format.pp_print_flush ppf ();
        Format.pp_set_formatter_output_functions ppf out flush)
  in
  (result, Buffer.contents buf)

(* The value of a figure's returned metric, by name. *)
let metric metrics name =
  match List.find_opt (fun m -> m.Dream_obs.Bench_snapshot.m_name = name) metrics with
  | Some m -> m.Dream_obs.Bench_snapshot.m_value
  | None -> Alcotest.failf "no metric %s" name

(* Printed text as rows of its whitespace-separated cells, line by line. *)
let rows text =
  List.map
    (fun line -> List.filter (( <> ) "") (String.split_on_char ' ' line))
    (String.split_on_char '\n' text)
