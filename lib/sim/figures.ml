module Snapshot = Dream_obs.Bench_snapshot
module Profile = Dream_obs.Profile

(* Each entry records the fixed seed set its harness draws from, purely
   as snapshot provenance (the harnesses hard-code their seeds). *)
let scenario_seed = Dream_workload.Scenario.default.Dream_workload.Scenario.seed

let registry : (string * string * int list * (quick:bool -> Snapshot.metric list)) list =
  [
    ("fig2", "HH recall vs counters over time; per-switch recall", [ 31 ], Fig02.run);
    ("fig4", "step update policies (MM/AM/AA/MA) convergence", [], Fig04.run);
    ("fig6", "satisfaction + rejection/drop vs capacity (Figs 6 & 7)", [ scenario_seed ],
     Fig06.run);
    ("fig8", "prototype-vs-simulator validation (Figs 8 & 9)", [ scenario_seed ], Fig06.run_prototype);
    ("fig10", "large-scale satisfaction + rejection/drop (Figs 10 & 11)", [ 11 ],
     Fig06.run_large);
    ("fig12", "parameter sensitivity (Figs 12 & 13)", [ scenario_seed ], Fig12.run);
    ("fig14", "arrival-rate sensitivity", [ scenario_seed ], Fig14.run);
    ("fig15", "headroom x allocation interval", [ scenario_seed ], Fig15.run);
    ("fig16", "Fixed_k configurations", [ scenario_seed ], Fig16.run);
    ("fig17", "control-loop delay breakdown and allocation delay", [ scenario_seed ], Fig17.run);
    ("ablation", "design ablations: allocation signal, step policy, TCAM vs sketch",
     [ scenario_seed; 301 ], Ablation.run);
    ("faults", "satisfaction/accuracy degradation vs failure rate", [ 97; 193; 389 ],
     Fault_sweep.run);
    ("crash-recovery", "checkpoint/journal fail-over vs controller crash rate",
     [ 211; 499; 733 ], Crash_recovery.run);
    ("telemetry-overhead", "epoch-time cost of the telemetry exporters (on vs off)", [ 97 ],
     Telemetry_overhead.run);
    ("degraded-mode", "fast-degrade vs stall-baseline under partitions/stragglers/storms",
     [ 97 ], Degraded_mode.run);
    ("chaos-coverage", "deterministic chaos schedule bank vs the invariant-oracle suite",
     [ 42 ], Chaos_coverage.run);
  ]

let all = List.map (fun (id, descr, _, _) -> (id, descr)) registry

(* Run one harness under a profile span named after the figure and, when
   asked, emit its BENCH_<figure>.json. *)
let run_entry ?snapshot_dir ~quick (id, _descr, seeds, f) =
  let profile = Profile.create () in
  let span = Profile.intern profile id in
  Profile.start profile span;
  let metrics = f ~quick in
  Profile.stop profile span;
  Profile.close_epoch profile;
  match snapshot_dir with
  | None -> Ok ()
  | Some dir -> (
    let snap = Snapshot.make ~figure:id ~quick ~seeds ~metrics ~phases:(Profile.stats profile) () in
    match Snapshot.write snap ~dir with
    | Ok path ->
      Format.fprintf Table.out "snapshot: %s@." path;
      Ok ()
    | Error e -> Error (Printf.sprintf "%s: %s" id e))

let run ?snapshot_dir ~quick id =
  match List.find_opt (fun (id', _, _, _) -> id' = id) registry with
  | Some entry -> run_entry ?snapshot_dir ~quick entry
  | None -> Error (Printf.sprintf "unknown figure id %S" id)

let run_all ?snapshot_dir ~quick () =
  let errors =
    List.filter_map
      (fun entry ->
        match run_entry ?snapshot_dir ~quick entry with
        | Ok () -> None
        | Error e -> Some e)
      registry
  in
  match errors with [] -> Ok () | es -> Error (String.concat "; " es)
