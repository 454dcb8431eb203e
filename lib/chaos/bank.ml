module Rng = Dream_util.Rng
module Json = Dream_obs.Json

type coverage = {
  switch_crashes : int;
  controller_crashes : int;
  partitions : int;
  heal_hints : int;
  storms : int;
  noise_windows : int;
  torn_tails : int;
  checkpoint_probes : int;
}

let zero_coverage =
  {
    switch_crashes = 0;
    controller_crashes = 0;
    partitions = 0;
    heal_hints = 0;
    storms = 0;
    noise_windows = 0;
    torn_tails = 0;
    checkpoint_probes = 0;
  }

let count_events cov (sched : Schedule.t) =
  List.fold_left
    (fun c e ->
      match e with
      | Schedule.Fault { fault = Crash _; _ } -> { c with switch_crashes = c.switch_crashes + 1 }
      | Schedule.Fault { fault = Controller_crash; _ } ->
        { c with controller_crashes = c.controller_crashes + 1 }
      | Schedule.Fault { fault = Partition _; _ } -> { c with partitions = c.partitions + 1 }
      | Schedule.Fault { fault = Heal _; _ } -> { c with heal_hints = c.heal_hints + 1 }
      | Schedule.Fault { fault = Storm _; _ } -> { c with storms = c.storms + 1 }
      | Schedule.Fault { fault = Noise _; _ } -> { c with noise_windows = c.noise_windows + 1 }
      | Schedule.Torn_tail _ -> { c with torn_tails = c.torn_tails + 1 }
      | Schedule.Checkpoint _ -> { c with checkpoint_probes = c.checkpoint_probes + 1 })
    cov sched.Schedule.events

type failure = {
  f_schedule : Schedule.t;
  f_canary : bool;
  f_first : Oracle.violation;
  f_minimized : Schedule.t;
  f_stats : Shrink.stats;
}

type outcome = {
  schedules : int;
  seed : int;
  horizon : int;
  events_per_schedule : int;
  canary : bool;
  coverage : coverage;
  recoveries : int;
  checkpoints : int;
  torn_tail_checks : int;
  storm_submissions : int;
  violations : int;
  differential_ok : bool;
  failures : failure list;
}

let schedule_seed master = Int64.to_int (Rng.bits64 master) land max_int

(* Failing schedules shrunk per bank; later ones only count. *)
let max_failures = 3

let run ?(canary = false) ?(horizon = Harness.default_horizon)
    ?(events = Harness.default_events) ~schedules ~seed () =
  if schedules < 1 then invalid_arg "Bank.run: schedules must be >= 1";
  (* Differential oracle: a schedule with zero adversity must be
     byte-identical to the seed run without any chaos machinery. *)
  let empty = { Schedule.seed; horizon; events = [] } in
  let empty_run = Harness.run ~canary:false empty in
  let differential_ok =
    String.equal empty_run.Harness.digest (Harness.reference_digest ~seed ~horizon)
    && not (Harness.failed empty_run)
  in
  let master = Rng.create seed in
  let coverage = ref zero_coverage in
  let recoveries = ref 0 in
  let checkpoints = ref 0 in
  let torn = ref 0 in
  let storm_submissions = ref 0 in
  let violations = ref 0 in
  let failures = ref [] in
  for _ = 1 to schedules do
    let sched =
      Schedule.generate ~seed:(schedule_seed master) ~num_switches:Harness.num_switches ~horizon
        ~events
    in
    coverage := count_events !coverage sched;
    let result = Harness.run ~canary sched in
    recoveries := !recoveries + result.Harness.recoveries;
    checkpoints := !checkpoints + result.Harness.checkpoints;
    torn := !torn + result.Harness.torn_tail_checks;
    storm_submissions := !storm_submissions + result.Harness.storm_submissions;
    violations := !violations + List.length result.Harness.violations;
    match result.Harness.violations with
    | first :: _ when List.length !failures < max_failures ->
      let fails s = Harness.failed (Harness.run ~canary s) in
      let minimized, stats = Shrink.minimize ~fails sched in
      failures :=
        { f_schedule = sched; f_canary = canary; f_first = first; f_minimized = minimized;
          f_stats = stats }
        :: !failures
    | _ -> ()
  done;
  {
    schedules;
    seed;
    horizon;
    events_per_schedule = events;
    canary;
    coverage = !coverage;
    recoveries = !recoveries;
    checkpoints = !checkpoints;
    torn_tail_checks = !torn;
    storm_submissions = !storm_submissions;
    violations = !violations;
    differential_ok;
    failures = List.rev !failures;
  }

(* ---- reproducer files ---- *)

(* The canary flag, the first violation and the minimized schedule, which
   must fit the harness's topology. *)
let reproducer_json =
  let open Dream_util.Codec in
  let violation =
    record
      (let+ epoch = field (int "epoch") (fun v -> v.Oracle.epoch)
       and+ code = field (string "code") (fun v -> v.Oracle.code)
       and+ detail = field (string "detail") (fun v -> v.Oracle.detail) in
       { Oracle.epoch; code; detail })
  in
  record
    (let+ () = field (constant (int "chaos") 1) ignore
     and+ canary = field (bool "canary") (fun (c, _, _) -> c)
     and+ first = field (section "violation" violation) (fun (_, v, _) -> v)
     and+ sched = field (section "schedule" Schedule.json) (fun (_, _, s) -> s) in
     match Schedule.validate ~num_switches:Harness.num_switches sched with
     | Ok () -> (canary, first, sched)
     | Error e -> refuse e)

let reproducer_to_string (f : failure) =
  Json.to_string (Json.encode reproducer_json (f.f_canary, f.f_first, f.f_minimized))

let reproducer_of_string s =
  Result.bind (Json.of_string s) (Json.decode reproducer_json)
  |> Result.map (fun (canary, _, sched) -> (canary, sched))
