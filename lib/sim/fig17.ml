module Scenario = Dream_workload.Scenario
module Config = Dream_core.Config
module Telemetry = Dream_obs.Telemetry
module Trace = Dream_obs.Trace
module Stats = Dream_util.Stats

(* Run DREAM on [scenario] with a bundle attached: the result reads a
   phase's spans back, oldest first. *)
let traced_run scenario =
  let bundle = Telemetry.create () in
  ignore
    (Experiment.run
       ~config:{ Config.default with Config.telemetry = Some bundle }
       scenario Experiment.dream_strategy);
  fun phase -> Trace.spans (Telemetry.trace bundle) ~phase

let run ~quick =
  let base = Experiment.scenario ~quick in
  Table.heading "Figure 17a: control loop delay breakdown per epoch (ms)";
  Table.row [ "capacity"; "fetch"; "save"; "report"; "allocate"; "configure" ];
  (* Only fetch and save come from the deterministic delay model; report,
     allocate and configure are measured wall-clock time, so of the
     headline metrics at capacity 1024 only the modelled pair gates
     tightly — the wall-clock columns are tracked as Info. *)
  let headline = ref [] in
  List.iter
    (fun capacity ->
      let spans = traced_run { base with Scenario.capacity } in
      (* The paper's "report" is the reports and estimators: the estimate span. *)
      let phases =
        List.map
          (fun (name, phase) -> (name, phase, Stats.mean (spans phase)))
          [
            ("fetch_ms", "model/fetch"); ("save_ms", "model/save"); ("report_ms", "epoch/estimate");
            ("allocate_ms", "epoch/allocate"); ("configure_ms", "epoch/configure");
          ]
      in
      if capacity = 1024 then headline := phases;
      Table.row (string_of_int capacity :: List.map (fun (_, _, v) -> Table.f2 v) phases))
    [ 256; 512; 1024; 2048 ];
  Table.heading "Figure 17b: allocation delay vs switches per task (ms)";
  Table.row [ "sw/task"; "mean"; "p95" ];
  let alloc_p95 = ref [] in
  List.iter
    (fun k ->
      let scenario = { base with Scenario.switches_per_task = k; Scenario.capacity = 1024 } in
      let allocs = List.filter (fun ms -> ms > 0.0) (traced_run scenario "epoch/allocate") in
      match allocs with
      | [] -> Table.row [ string_of_int k; "-"; "-" ]
      | _ :: _ ->
        let p95 = Stats.percentile 95.0 allocs in
        alloc_p95 := (k, p95) :: !alloc_p95;
        Table.row [ string_of_int k; Table.f2 (Stats.mean allocs); Table.f2 p95 ])
    [ 2; 4; 8 ];
  let gated name v =
    Dream_obs.Bench_snapshot.metric ~unit_:"ms"
      ~direction:Dream_obs.Bench_snapshot.Lower_better name v
  in
  let info name v = Dream_obs.Bench_snapshot.metric ~unit_:"ms" name v in
  List.map
    (fun (name, phase, v) ->
      (if String.starts_with ~prefix:"model/" phase then gated else info) ("cap1024_" ^ name) v)
    !headline
  @ List.rev_map (fun (k, p95) -> info (Printf.sprintf "alloc_p95_ms_sw%d" k) p95) !alloc_p95
