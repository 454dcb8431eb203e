(* dream-sim: run DREAM experiments from the command line.

     dune exec bin/dream_sim.exe -- run --capacity 1024 --strategy dream
     dune exec bin/dream_sim.exe -- run --kind HH --tasks 32 --fault-rate 0.1
     dune exec bin/dream_sim.exe -- fault-sweep --rates 0.0,0.05,0.2
     dune exec bin/dream_sim.exe -- degraded-mode --levels 0.0,0.5,1.0 --telemetry tel/
     dune exec bin/dream_sim.exe -- checkpoint --out run.ckpt --at 100
     dune exec bin/dream_sim.exe -- restore-run --from run.ckpt --epochs 100
     dune exec bin/dream_sim.exe -- crash-recovery --rates 0.0,0.02,0.05

   The bare form (no subcommand) still runs a single experiment, so the
   pre-subcommand invocations keep working.  Every numeric option is
   validated up front; bad values produce a clear message and a non-zero
   exit code instead of a crash deep inside the simulator. *)

module Scenario = Dream_workload.Scenario
module Drive = Dream_workload.Drive
module Controller = Dream_core.Controller
module Experiment = Dream_sim.Experiment
module Fault_sweep = Dream_sim.Fault_sweep
module Crash_recovery = Dream_sim.Crash_recovery
module Degraded_mode = Dream_sim.Degraded_mode
module Config = Dream_core.Config
module Metrics = Dream_core.Metrics
module Task_spec = Dream_tasks.Task_spec
module Topology = Dream_traffic.Topology
module Fault_model = Dream_fault.Fault_model
module Journal = Dream_recovery.Journal
module Allocator = Dream_alloc.Allocator
module Stats = Dream_util.Stats
module Telemetry = Dream_obs.Telemetry
module Inspect = Dream_obs.Inspect
module Bank = Dream_chaos.Bank
module Schedule = Dream_chaos.Schedule
module Harness = Dream_chaos.Harness
module Oracle = Dream_chaos.Oracle
module Shrink = Dream_chaos.Shrink
module Chaos_coverage = Dream_sim.Chaos_coverage

let ( let* ) = Result.bind
let check cond msg = if cond then Ok () else Error msg
let sp = Printf.sprintf

let scenario_of capacity num_switches switches_per_task tasks window duration epochs threshold
    bound kind seed =
  let* () = check (capacity > 0) (sp "--capacity must be positive (got %d)" capacity) in
  let* () = check (num_switches > 0) (sp "--switches must be positive (got %d)" num_switches) in
  let* () =
    check (switches_per_task > 0)
      (sp "--switches-per-task must be positive (got %d)" switches_per_task)
  in
  (* The topology splits each task filter into this many equal
     sub-prefixes, one per distinct switch, tracked as bits of an int. *)
  let* () =
    check
      (switches_per_task land (switches_per_task - 1) = 0)
      (sp "--switches-per-task must be a power of two (got %d)" switches_per_task)
  in
  let* () =
    check
      (switches_per_task <= num_switches)
      (sp "--switches-per-task must not exceed --switches (got %d > %d)" switches_per_task
         num_switches)
  in
  let* () =
    check
      (switches_per_task <= Topology.max_switches_per_task)
      (sp "--switches-per-task must be at most %d (got %d)" Topology.max_switches_per_task
         switches_per_task)
  in
  let* () = check (tasks > 0) (sp "--tasks must be positive (got %d)" tasks) in
  let* () = check (window > 0) (sp "--window must be a positive epoch count (got %d)" window) in
  let* () =
    check (duration > 0) (sp "--duration must be a positive epoch count (got %d)" duration)
  in
  let* () = check (epochs > 0) (sp "--epochs must be a positive epoch count (got %d)" epochs) in
  let* () =
    check
      (Float.is_finite threshold && threshold > 0.0)
      (sp "--threshold must be a positive finite number of Mb (got %g)" threshold)
  in
  let* () =
    check (bound >= 0.0 && bound <= 1.0) (sp "--bound must be in [0, 1] (got %g)" bound)
  in
  let scenario =
    {
      Scenario.default with
      Scenario.capacity;
      num_switches;
      switches_per_task;
      num_tasks = tasks;
      arrival_window = window;
      mean_duration = duration;
      total_epochs = epochs;
      threshold;
      accuracy_bound = bound;
      seed;
    }
  in
  match String.lowercase_ascii kind with
  | "hh" -> Ok (Scenario.with_kind scenario Task_spec.Heavy_hitter)
  | "hhh" -> Ok (Scenario.with_kind scenario Task_spec.Hierarchical_heavy_hitter)
  | "cd" -> Ok (Scenario.with_kind scenario Task_spec.Change_detection)
  | "combined" | "all" -> Ok scenario
  | other -> Error (sp "unknown kind %S (HH | HHH | CD | combined)" other)

let strategy_of strategy fixed_k =
  match String.lowercase_ascii strategy with
  | "dream" -> Ok Experiment.dream_strategy
  | "equal" -> Ok Allocator.Equal
  | "fixed" ->
    let* () = check (fixed_k > 0) (sp "--fixed-k must be positive (got %d)" fixed_k) in
    Ok (Allocator.Fixed fixed_k)
  | other -> Error (sp "unknown strategy %S (dream | equal | fixed)" other)

let rate_in_range ~flag rate =
  let* () =
    check (Float.is_finite rate) (sp "%s must be a finite number (got %s)" flag (string_of_float rate))
  in
  check (rate >= 0.0 && rate <= 1.0) (sp "%s must be in [0, 1] (got %g)" flag rate)

(* A rate list is only meaningful when every value is a finite number in
   [0, 1] and no value repeats (a duplicate would silently double-weight
   one sweep point). *)
let rates_in_range ~flag rates =
  let* () =
    List.fold_left (fun acc r -> Result.bind acc (fun () -> rate_in_range ~flag r)) (Ok ()) rates
  in
  let rec first_dup = function
    | [] -> Ok ()
    | r :: rest ->
      if List.exists (fun r' -> Float.equal r' r) rest then
        Error (sp "%s contains duplicate value %g" flag r)
      else first_dup rest
  in
  first_dup rates

(* Validate --telemetry DIR before the run spends any time: the path must
   be (or become) a writable directory that does not already hold a bundle,
   so a long experiment can never fail at export time. *)
let telemetry_dir_ready dir =
  let exists = Sys.file_exists dir in
  let* () =
    check
      ((not exists) || Sys.is_directory dir)
      (sp "--telemetry: %s exists and is not a directory" dir)
  in
  let* () =
    if exists then begin
      let collisions =
        List.filter
          (fun f -> Sys.file_exists (Filename.concat dir f))
          [ "trace.jsonl"; "metrics.prom"; "profile.json"; "tasks.csv"; "switches.csv" ]
      in
      check (collisions = [])
        (sp "--telemetry: %s already holds a bundle (%s); pick a fresh directory" dir
           (String.concat ", " collisions))
    end
    else begin
      try Ok (Sys.mkdir dir 0o755)
      with Sys_error msg -> Error (sp "--telemetry: cannot create %s: %s" dir msg)
    end
  in
  let probe = Filename.concat dir ".write-probe" in
  try
    let oc = open_out probe in
    close_out oc;
    Sys.remove probe;
    Ok ()
  with Sys_error msg -> Error (sp "--telemetry: %s is not writable: %s" dir msg)

let print_summary name (s : Metrics.summary) =
  Format.printf "@.%s results:@." name;
  Format.printf "  satisfaction  mean %.1f%%  5th-pct %.1f%%@." s.Metrics.mean_satisfaction
    s.Metrics.p5_satisfaction;
  Format.printf "  tasks         submitted %d  admitted %d  completed %d@." s.Metrics.submitted
    s.Metrics.admitted s.Metrics.completed;
  Format.printf "  rejection     %.1f%%   drop %.1f%%@." s.Metrics.rejection_pct s.Metrics.drop_pct;
  if s.Metrics.robustness <> Metrics.no_faults then
    Format.printf "  robustness    %a@." Metrics.pp_robustness s.Metrics.robustness

let run (scenario, strategy) fault_rate fault_seed telemetry_dir profiling verbose =
  let* () = rate_in_range ~flag:"--fault-rate" fault_rate in
  let* () =
    check ((not profiling) || telemetry_dir <> None) "--profile requires --telemetry DIR"
  in
  let* telemetry =
    match telemetry_dir with
    | None -> Ok None
    | Some dir ->
      let* () = telemetry_dir_ready dir in
      let profile = if profiling then Some (Dream_obs.Profile.create ()) else None in
      Ok (Some (Telemetry.create ?profile ()))
  in
  let config =
    let base =
      if fault_rate <= 0.0 then Config.default
      else
        { Config.default with
          Config.faults = Some (Fault_model.uniform ~seed:fault_seed fault_rate)
        }
    in
    { base with Config.telemetry }
  in
  Format.printf "scenario: %a@." Scenario.pp scenario;
  Format.printf "expected concurrency: %.1f tasks@." (Scenario.concurrency scenario);
  if fault_rate > 0.0 then
    Format.printf "fault injection: uniform rate %.3f (seed %d)@." fault_rate fault_seed;
  let result = Experiment.run ~config scenario strategy in
  print_summary result.Experiment.strategy result.Experiment.summary;
  Format.printf "  switch rules  installed %d  fetched %d@." result.Experiment.rules_installed
    result.Experiment.rules_fetched;
  let* () =
    match (telemetry, telemetry_dir) with
    | Some bundle, Some dir ->
      let* () = Telemetry.write_dir bundle ~dir in
      Format.printf "  telemetry     %d trace items -> %s@."
        (Dream_obs.Trace.length (Telemetry.trace bundle))
        dir;
      (match Telemetry.profile bundle with
      | Some p ->
        let module Profile = Dream_obs.Profile in
        (match Profile.find p "epoch" with
        | Some st ->
          Format.printf "  profile       %d epochs, %.1f ms wall, %.0f minor words allocated@."
            st.Profile.count st.Profile.wall_ms
            st.Profile.gc.Dream_obs.Gc_stats.minor_words
        | None -> ())
      | None -> ());
      Ok ()
    | _ -> Ok ()
  in
  if verbose then begin
    Format.printf "@.per-task records:@.";
    List.iter
      (fun (r : Metrics.record) ->
        Format.printf "  task %3d %-4s %-9s arrived %4d  active %4d  satisfaction %5.1f%%@."
          r.Metrics.task_id
          (Task_spec.kind_to_string r.Metrics.kind)
          (match r.Metrics.outcome with
          | Metrics.Completed -> "completed"
          | Metrics.Dropped -> "dropped"
          | Metrics.Rejected -> "rejected")
          r.Metrics.arrived_at r.Metrics.active_epochs
          (r.Metrics.satisfaction *. 100.0))
      result.Experiment.records
  end;
  Ok ()

let fault_sweep (scenario, strategy) rates fault_seeds =
  let rates = if rates = [] then Fault_sweep.default_rates else rates in
  let* () = rates_in_range ~flag:"--rates" rates in
  let seeds = if fault_seeds = [] then Fault_sweep.default_seeds else fault_seeds in
  Format.printf "scenario: %a@." Scenario.pp scenario;
  Format.printf "strategy: %s   fault seeds: %s@.@."
    (Allocator.strategy_name strategy)
    (String.concat "," (List.map string_of_int seeds));
  let aggregates = Fault_sweep.sweep_seeds ~seeds ~rates scenario strategy in
  Fault_sweep.print_aggregates aggregates;
  Ok ()

(* Drive a controller through [at] epochs of a scenario's arrival
   schedule, journaling into --journal when given, then seal a checkpoint.
   The journal is opened before the first epoch, so a bad path fails
   before any work is done. *)
let checkpoint (scenario, strategy) fault_rate fault_seed at out journal_path =
  let* () = rate_in_range ~flag:"--fault-rate" fault_rate in
  let* () =
    check (at > 0 && at <= scenario.Scenario.total_epochs)
      (sp "--at must be a positive epoch count within --epochs (got %d, epochs %d)" at
         scenario.Scenario.total_epochs)
  in
  let config =
    if fault_rate <= 0.0 then Config.default
    else
      { Config.default with Config.faults = Some (Fault_model.uniform ~seed:fault_seed fault_rate) }
  in
  let* journal =
    match journal_path with
    | None -> Ok None
    | Some path -> (
      try Ok (Some (Journal.file path))
      with Sys_error msg -> Error (sp "cannot open journal %s: %s" path msg))
  in
  let drive = Drive.create ?journal ~config ~strategy scenario in
  for _ = 1 to at do
    Drive.step drive
  done;
  let controller = Drive.controller drive in
  let doc = Controller.snapshot controller in
  Option.iter Journal.close journal;
  let* () =
    try
      let oc = open_out out in
      output_string oc doc;
      close_out oc;
      Ok ()
    with Sys_error msg -> Error (sp "cannot write checkpoint %s: %s" out msg)
  in
  Format.printf "checkpoint: %d epochs, %d active tasks, %d bytes -> %s@." at
    (Controller.active_tasks controller)
    (String.length doc) out;
  (match (journal, journal_path) with
  | Some sink, Some path -> Format.printf "journal: %d entries -> %s@." (Journal.length sink) path
  | _ -> ());
  Ok ()

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error msg -> Error (sp "cannot read checkpoint %s: %s" path msg)

let restore_run from epochs verbose =
  let* () = check (epochs >= 0) (sp "--epochs must not be negative (got %d)" epochs) in
  let* doc = read_file from in
  let* controller = Result.map_error (sp "invalid checkpoint %s: %s" from) (Controller.restore doc) in
  Format.printf "restored %s: epoch %d, %d switches, %d active tasks@." from
    (Controller.epoch controller) (Controller.num_switches controller)
    (Controller.active_tasks controller);
  Controller.run controller ~epochs;
  Controller.finalize controller;
  print_summary "resumed run" (Controller.summary controller);
  if verbose then begin
    Format.printf "@.per-task records:@.";
    List.iter
      (fun (r : Metrics.record) ->
        Format.printf "  task %3d arrived %4d  active %4d  satisfaction %5.1f%%@." r.Metrics.task_id
          r.Metrics.arrived_at r.Metrics.active_epochs
          (r.Metrics.satisfaction *. 100.0))
      (Controller.records controller)
  end;
  Ok ()

let crash_recovery (scenario, strategy) rates fault_seeds checkpoint_interval =
  let rates = if rates = [] then Crash_recovery.default_rates else rates in
  let* () = rates_in_range ~flag:"--rates" rates in
  let* () =
    check (checkpoint_interval > 0)
      (sp "--checkpoint-interval must be a positive epoch count (got %d)" checkpoint_interval)
  in
  let seeds = if fault_seeds = [] then Crash_recovery.default_seeds else fault_seeds in
  Format.printf "scenario: %a@." Scenario.pp scenario;
  Format.printf "strategy: %s   fault seeds: %s   checkpoint every %d epochs@.@."
    (Allocator.strategy_name strategy)
    (String.concat "," (List.map string_of_int seeds))
    checkpoint_interval;
  let points =
    Crash_recovery.sweep ~checkpoint_interval ~seeds ~rates scenario strategy
  in
  Crash_recovery.print_points points;
  Ok ()

let degraded_mode (scenario, strategy) levels fault_seed deadline_fraction telemetry_dir =
  let levels = if levels = [] then Degraded_mode.default_levels else levels in
  let* () = rates_in_range ~flag:"--levels" levels in
  let* () =
    check
      (Float.is_finite deadline_fraction && deadline_fraction > 0.0 && deadline_fraction <= 1.0)
      (sp "--deadline-fraction must be in (0, 1] (got %g)" deadline_fraction)
  in
  let* telemetry =
    match telemetry_dir with
    | None -> Ok None
    | Some dir ->
      let* () = telemetry_dir_ready dir in
      Ok (Some (Telemetry.create ()))
  in
  let degraded = { Config.deadline_fraction } in
  Format.printf "scenario: %a@." Scenario.pp scenario;
  Format.printf "strategy: %s   adversity levels: %s   deadline %.0f%% of epoch@.@."
    (Allocator.strategy_name strategy)
    (String.concat "," (List.map (Printf.sprintf "%g") levels))
    (deadline_fraction *. 100.0);
  Degraded_mode.print_points (Degraded_mode.sweep ~fault_seed ~degraded ~levels scenario strategy);
  match (telemetry, telemetry_dir) with
  | Some bundle, Some dir ->
    (* One more degraded run, at the highest level, with the bundle
       attached — so the exported artifact holds the breaker transitions,
       shed events and staleness histogram of the worst case swept. *)
    let top = List.fold_left Float.max 0.0 levels in
    ignore
      (Degraded_mode.run_point ~telemetry:bundle ~fault_seed ~degraded:(Some degraded) scenario
         strategy top);
    let* () = Telemetry.write_dir bundle ~dir in
    Format.printf "@.telemetry (level %g): %d trace items -> %s@." top
      (Dream_obs.Trace.length (Telemetry.trace bundle))
      dir;
    Ok ()
  | _ -> Ok ()

open Cmdliner

let capacity = Arg.(value & opt int 1024 & info [ "capacity"; "c" ] ~doc:"TCAM entries per switch.")
let num_switches = Arg.(value & opt int 8 & info [ "switches" ] ~doc:"Number of switches.")

let switches_per_task =
  Arg.(value & opt int 8 & info [ "switches-per-task" ] ~doc:"Switches seeing each task (power of two).")

let tasks = Arg.(value & opt int 88 & info [ "tasks"; "n" ] ~doc:"Number of submitted tasks.")
let window = Arg.(value & opt int 280 & info [ "window" ] ~doc:"Arrival window in epochs.")
let duration = Arg.(value & opt int 140 & info [ "duration" ] ~doc:"Mean task duration in epochs.")
let epochs = Arg.(value & opt int 560 & info [ "epochs" ] ~doc:"Total simulated epochs.")
let threshold = Arg.(value & opt float 8.0 & info [ "threshold" ] ~doc:"Task threshold in Mb.")
let bound = Arg.(value & opt float 0.8 & info [ "bound" ] ~doc:"Accuracy bound in [0,1].")

let kind =
  Arg.(value & opt string "combined" & info [ "kind"; "k" ] ~doc:"Task kind: HH, HHH, CD or combined.")

let strategy =
  Arg.(value & opt string "dream" & info [ "strategy"; "s" ] ~doc:"Allocator: dream, equal or fixed.")

let fixed_k = Arg.(value & opt int 32 & info [ "fixed-k" ] ~doc:"The k of Fixed_k (capacity/k per task).")
let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.")

let fault_rate =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~doc:"Uniform failure rate in [0,1]; 0 disables fault injection.")

let fault_seed = Arg.(value & opt int 97 & info [ "fault-seed" ] ~doc:"Fault-injection random seed.")

let fault_seeds =
  Arg.(
    value
    & opt (list int) []
    & info [ "fault-seeds" ] ~doc:"Comma-separated fault seeds; each rate runs once per seed.")

let rates =
  Arg.(
    value
    & opt (list float) []
    & info [ "rates" ] ~doc:"Comma-separated failure rates in [0,1] to sweep.")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print per-task records.")

let telemetry_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Record a telemetry bundle (JSONL trace, Prometheus snapshot, per-task and per-switch \
           CSV) into $(docv); read it back with the $(b,inspect) subcommand.")

let profiling =
  Arg.(
    value
    & flag
    & info [ "profile" ]
        ~doc:
          "Attach a GC/allocation profile to the run (requires $(b,--telemetry)); spans land in \
           $(b,profile.json) and the $(b,inspect) subcommand renders them.")

(* The scenario and allocator every experiment subcommand takes, validated
   before the subcommand's own options. *)
let scenario =
  let make capacity num_switches switches_per_task tasks window duration epochs threshold bound
      kind seed strategy fixed_k =
    let* scenario =
      scenario_of capacity num_switches switches_per_task tasks window duration epochs threshold
        bound kind seed
    in
    let* strategy = strategy_of strategy fixed_k in
    Ok (scenario, strategy)
  in
  Term.term_result' ~usage:false
    Term.(
      const make $ capacity $ num_switches $ switches_per_task $ tasks $ window $ duration $ epochs
      $ threshold $ bound $ kind $ seed $ strategy $ fixed_k)

let run_term =
  Term.term_result' ~usage:false
    Term.(
      const run $ scenario $ fault_rate $ fault_seed $ telemetry_dir $ profiling $ verbose)

let run_cmd =
  let doc = "run one measurement experiment (optionally with fault injection)" in
  Cmd.v (Cmd.info "run" ~doc) run_term

let fault_sweep_cmd =
  let doc = "sweep failure rates over several seeds; report mean±stddev degradation" in
  Cmd.v
    (Cmd.info "fault-sweep" ~doc)
    (Term.term_result' ~usage:false
       Term.(const fault_sweep $ scenario $ rates $ fault_seeds))

let checkpoint_cmd =
  let doc = "run part of an experiment, then write a sealed controller checkpoint" in
  let at =
    Arg.(value & opt int 100 & info [ "at" ] ~doc:"Epochs to simulate before checkpointing.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the checkpoint document.")
  in
  let journal_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE" ~doc:"Also write the write-ahead journal to $(docv).")
  in
  Cmd.v
    (Cmd.info "checkpoint" ~doc)
    (Term.term_result' ~usage:false
       Term.(const checkpoint $ scenario $ fault_rate $ fault_seed $ at $ out $ journal_path))

let restore_run_cmd =
  let doc = "restore a controller from a checkpoint and keep simulating" in
  let from =
    Arg.(
      required
      & opt (some string) None
      & info [ "from"; "f" ] ~docv:"FILE" ~doc:"Checkpoint document to restore.")
  in
  let extra =
    Arg.(value & opt int 100 & info [ "epochs" ] ~doc:"Epochs to simulate after restoring.")
  in
  Cmd.v
    (Cmd.info "restore-run" ~doc)
    (Term.term_result' ~usage:false Term.(const restore_run $ from $ extra $ verbose))

let crash_recovery_cmd =
  let doc = "sweep controller crash rates; fail over from checkpoint + journal each crash" in
  let checkpoint_interval =
    Arg.(
      value
      & opt int Crash_recovery.default_checkpoint_interval
      & info [ "checkpoint-interval" ] ~doc:"Epochs between checkpoints.")
  in
  Cmd.v
    (Cmd.info "crash-recovery" ~doc)
    (Term.term_result' ~usage:false
       Term.(const crash_recovery $ scenario $ rates $ fault_seeds $ checkpoint_interval))

let degraded_mode_cmd =
  let doc = "sweep adversity levels: fast-degrade (breakers + deadline shedding) vs stall-baseline" in
  let levels =
    Arg.(
      value
      & opt (list float) []
      & info [ "levels" ] ~doc:"Comma-separated adversity levels in [0,1] to sweep.")
  in
  let deadline_fraction =
    Arg.(
      value
      & opt float Config.default_degraded.Config.deadline_fraction
      & info [ "deadline-fraction" ]
          ~doc:"Enforced per-epoch fetch deadline as a fraction of the epoch, in (0, 1].")
  in
  Cmd.v
    (Cmd.info "degraded-mode" ~doc)
    (Term.term_result' ~usage:false
       Term.(
         const degraded_mode $ scenario $ levels $ fault_seed $ deadline_fraction $ telemetry_dir))

(* dream-sim chaos: run a deterministic schedule bank against the oracle
   suite, shrink anything that fails, and drop replayable reproducers.
   Exit code 2 (not 124, which is reserved for argument validation) means
   the oracles found violations. *)
let chaos schedules seed horizon events canary out replay =
  let* () = check (schedules > 0) (sp "--schedules must be positive (got %d)" schedules) in
  let* () = check (seed >= 0) (sp "--seed must not be negative (got %d)" seed) in
  let* () = check (horizon >= 2) (sp "--horizon must be at least 2 epochs (got %d)" horizon) in
  let* () = check (events > 0) (sp "--events must be positive (got %d)" events) in
  match replay with
  | Some path ->
    let* doc = read_file path in
    let* file_canary, sched =
      Result.map_error (sp "invalid reproducer %s: %s" path) (Bank.reproducer_of_string doc)
    in
    let canary = canary || file_canary in
    Format.printf "replaying %s: seed %d, %d events over %d epochs%s@." path
      sched.Schedule.seed
      (List.length sched.Schedule.events)
      sched.Schedule.horizon
      (if canary then " (canary armed)" else "");
    List.iter (fun e -> Format.printf "  %a@." Schedule.pp_event e) sched.Schedule.events;
    let result = Harness.run ~canary sched in
    (match result.Harness.violations with
    | [] ->
      Format.printf "reproducer did NOT reproduce: 0 violations@.";
      exit 2
    | vs ->
      Format.printf "reproduced %d violation(s):@." (List.length vs);
      List.iter (fun v -> Format.printf "  %s@." (Oracle.to_string v)) vs;
      Ok ())
  | None ->
    let* () =
      match out with
      | None -> Ok ()
      | Some dir ->
        if Sys.file_exists dir then
          check (Sys.is_directory dir) (sp "--out: %s exists and is not a directory" dir)
        else begin
          try Ok (Sys.mkdir dir 0o755)
          with Sys_error msg -> Error (sp "--out: cannot create %s: %s" dir msg)
        end
    in
    let o = Bank.run ~canary ~horizon ~events ~schedules ~seed () in
    Chaos_coverage.print_outcome o;
    let* () =
      match out with
      | None -> Ok ()
      | Some dir ->
        List.fold_left
          (fun acc (f : Bank.failure) ->
            let* () = acc in
            let path =
              Filename.concat dir (sp "chaos-repro-%d.json" f.Bank.f_schedule.Schedule.seed)
            in
            try
              let oc = open_out path in
              output_string oc (Bank.reproducer_to_string f);
              output_char oc '\n';
              close_out oc;
              Format.printf "reproducer -> %s@." path;
              Ok ()
            with Sys_error msg -> Error (sp "cannot write reproducer %s: %s" path msg))
          (Ok ()) o.Bank.failures
    in
    if o.Bank.violations > 0 || not o.Bank.differential_ok then exit 2;
    Ok ()

let chaos_cmd =
  let doc = "run a deterministic chaos schedule bank; shrink and replay failures" in
  let schedules =
    Arg.(value & opt int 100 & info [ "schedules" ] ~doc:"Number of schedules in the bank.")
  in
  let chaos_seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Master seed the bank expands from.")
  in
  let horizon =
    Arg.(
      value
      & opt int Harness.default_horizon
      & info [ "horizon" ] ~doc:"Epochs each schedule simulates.")
  in
  let events =
    Arg.(
      value
      & opt int Harness.default_events
      & info [ "events" ] ~doc:"Fault events generated per schedule.")
  in
  let canary =
    Arg.(
      value & flag
      & info [ "canary" ]
          ~doc:
            "Arm the test-only canary bug (an over-capacity forced allocation under a \
             partition+storm overlap) to prove the oracles and shrinker catch it.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Write minimized reproducer files into $(docv).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a reproducer written by --out instead of running a bank.")
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    (Term.term_result' ~usage:false
       Term.(const chaos $ schedules $ chaos_seed $ horizon $ events $ canary $ out $ replay))

let inspect dir top =
  let* () = check (top > 0) (sp "--top must be positive (got %d)" top) in
  let* () =
    check
      (Sys.file_exists dir && Sys.is_directory dir)
      (sp "%s is not a telemetry directory" dir)
  in
  let* report = Inspect.load ~top dir in
  Format.printf "%a" (Inspect.pp ~robustness:(Metrics.to_list Metrics.names)) report;
  Ok ()

let inspect_cmd =
  let doc = "summarize a telemetry bundle written by run --telemetry" in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Telemetry directory to read.")
  in
  let top =
    Arg.(value & opt int 5 & info [ "top" ] ~doc:"How many noisiest tasks to list.")
  in
  Cmd.v
    (Cmd.info "inspect" ~doc)
    (Term.term_result' ~usage:false Term.(const inspect $ dir $ top))

let cmd =
  let doc = "run a DREAM software-defined measurement experiment" in
  Cmd.group ~default:run_term (Cmd.info "dream-sim" ~doc)
    [
      run_cmd; fault_sweep_cmd; degraded_mode_cmd; chaos_cmd; checkpoint_cmd; restore_run_cmd;
      crash_recovery_cmd; inspect_cmd;
    ]

let () = exit (Cmd.eval cmd)
