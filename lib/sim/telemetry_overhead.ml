module Scenario = Dream_workload.Scenario
module Config = Dream_core.Config
module Fault_model = Dream_fault.Fault_model
module Telemetry = Dream_obs.Telemetry
module Trace = Dream_obs.Trace
module Clock = Dream_obs.Clock
module Profile = Dream_obs.Profile
module Gc_stats = Dream_obs.Gc_stats
module Snapshot = Dream_obs.Bench_snapshot

(* A fault-injecting scenario so the event paths (crashes, retries, stale
   fallbacks) are part of what gets priced, not just the happy path. *)
let scenario_of ~quick =
  let s = Experiment.scenario ~quick in
  { s with Scenario.num_switches = 8 }

let config_of ~telemetry =
  { Config.default with Config.faults = Some (Fault_model.uniform ~seed:97 0.05); telemetry }

let timed f =
  let t0 = Clock.now_ms Clock.cpu in
  let r = f () in
  (r, (Clock.now_ms Clock.cpu -. t0) /. 1000.0)

(* Best-of-N wall time: the minimum is the least-noisy estimate of the
   code's intrinsic cost on a shared machine. *)
let best_of ~reps f =
  let rec go best result i =
    if i >= reps then (result, best)
    else begin
      let r, s = timed f in
      go (Float.min best s) (Some r) (i + 1)
    end
  in
  match go infinity None 0 with
  | Some r, best -> (r, best)
  | None, _ -> invalid_arg "best_of: reps must be positive"

let run ~quick =
  let scenario = scenario_of ~quick in
  let reps = if quick then 2 else 3 in
  Table.heading "telemetry overhead: exporters on vs off";
  Format.fprintf Table.out "scenario: %a@." Scenario.pp scenario;
  Format.fprintf Table.out "reps: best of %d per mode@.@." reps;
  let off, off_s =
    best_of ~reps (fun () ->
        Experiment.run ~config:(config_of ~telemetry:None) scenario Experiment.dream_strategy)
  in
  let last_bundle = ref None in
  let on, on_s =
    best_of ~reps (fun () ->
        let bundle = Telemetry.create () in
        last_bundle := Some bundle;
        Experiment.run
          ~config:(config_of ~telemetry:(Some bundle))
          scenario Experiment.dream_strategy)
  in
  let epochs = scenario.Scenario.total_epochs in
  let ms_per_epoch s = s *. 1000.0 /. float_of_int epochs in
  Table.row [ "mode"; "epochs"; "total_s"; "ms/epoch" ];
  Table.row
    [ "disabled"; string_of_int epochs; Printf.sprintf "%.3f" off_s;
      Printf.sprintf "%.3f" (ms_per_epoch off_s) ];
  Table.row
    [ "enabled"; string_of_int epochs; Printf.sprintf "%.3f" on_s;
      Printf.sprintf "%.3f" (ms_per_epoch on_s) ];
  let overhead = if off_s > 0.0 then (on_s -. off_s) /. off_s *. 100.0 else 0.0 in
  Format.fprintf Table.out "@.overhead: %+.1f%% epoch time with telemetry enabled (budget < 5%%)@." overhead;
  let trace_items =
    Option.fold ~none:0 ~some:(fun b -> Trace.length (Telemetry.trace b)) !last_bundle
  in
  Format.fprintf Table.out "trace items per run: %d@." trace_items;
  let identical = off.Experiment.summary = on.Experiment.summary in
  Format.fprintf Table.out "zero-diff check: summaries %s@."
    (if identical then "identical" else "DIVERGED — telemetry touched simulation state!");
  (* One profiled run prices the epoch loop's allocations.  The epoch
     span's words are exact (each Gc_stats read nets out the reads before
     it), so two runs of one build agree to the word and epoch_alloc_words
     gates on equality.  epochs/sec is wall clock and stays informational
     like the other timings. *)
  let profile = Profile.create () in
  let profiled_config = config_of ~telemetry:(Some (Telemetry.create ~profile ())) in
  let _, profiled_s = timed (fun () -> Experiment.run ~config:profiled_config scenario Experiment.dream_strategy) in
  let epoch_alloc_words =
    match Profile.find profile "epoch" with
    | Some stat ->
      let r = stat.Profile.gc in
      (r.Gc_stats.minor_words +. r.Gc_stats.major_words -. r.Gc_stats.promoted_words)
      /. float_of_int epochs
    | None -> Float.nan
  in
  let epochs_per_sec =
    if profiled_s > 0.0 then float_of_int epochs /. profiled_s else 0.0
  in
  Format.fprintf Table.out "profiled: %.0f words allocated per epoch, %.1f epochs/s@."
    epoch_alloc_words epochs_per_sec;
  (* Wall-clock numbers are Info — tracked in every diff and trend, but a
     noisy machine must never fail the gate on them.  The deterministic
     outputs (trace volume, the zero-diff bit) gate exactly. *)
  let wall name v = Snapshot.metric ~unit_:"s" name v in
  let exact name v =
    Snapshot.metric ~unit_:"count" ~direction:Snapshot.Higher_better name (float_of_int v)
  in
  [
    Snapshot.metric ~unit_:"count" "epochs" (float_of_int epochs);
    Snapshot.metric ~unit_:"count" "reps" (float_of_int reps);
    wall "disabled_s" off_s;
    wall "enabled_s" on_s;
    Snapshot.metric ~unit_:"ms" "disabled_ms_per_epoch" (ms_per_epoch off_s);
    Snapshot.metric ~unit_:"ms" "enabled_ms_per_epoch" (ms_per_epoch on_s);
    Snapshot.metric ~unit_:"pct" "overhead_pct" overhead;
    exact "trace_items" trace_items;
    exact "zero_diff" (if identical then 1 else 0);
    Snapshot.metric ~unit_:"epochs/s" "epochs_per_sec" epochs_per_sec;
    Snapshot.metric ~unit_:"words" ~direction:Snapshot.Lower_better "epoch_alloc_words"
      epoch_alloc_words;
  ]
