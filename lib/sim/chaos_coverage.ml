module Bank = Dream_chaos.Bank
module Schedule = Dream_chaos.Schedule
module Oracle = Dream_chaos.Oracle

let print_outcome (o : Bank.outcome) =
  Format.fprintf Table.out
    "bank: %d schedules x %d events over %d epochs (seed %d)@.@." o.Bank.schedules
    o.Bank.events_per_schedule o.Bank.horizon o.Bank.seed;
  let c = o.Bank.coverage in
  Table.row [ "event kind"; "scheduled" ];
  Table.row [ "switch-crash"; string_of_int c.Bank.switch_crashes ];
  Table.row [ "controller-crash"; string_of_int c.Bank.controller_crashes ];
  Table.row [ "partition"; string_of_int c.Bank.partitions ];
  Table.row [ "heal-hint"; string_of_int c.Bank.heal_hints ];
  Table.row [ "storm"; string_of_int c.Bank.storms ];
  Table.row [ "noise-window"; string_of_int c.Bank.noise_windows ];
  Table.row [ "torn-tail"; string_of_int c.Bank.torn_tails ];
  Table.row [ "checkpoint-probe"; string_of_int c.Bank.checkpoint_probes ];
  Format.fprintf Table.out
    "@.exercised: %d fail-overs, %d checkpoint round-trips, %d torn-tail parses, %d storm \
     submissions@."
    o.Bank.recoveries o.Bank.checkpoints o.Bank.torn_tail_checks o.Bank.storm_submissions;
  Format.fprintf Table.out "differential (zero-adversity vs seed run): %s@."
    (if o.Bank.differential_ok then "byte-identical" else "DIVERGED");
  Format.fprintf Table.out "violations: %d across %d failing schedules@." o.Bank.violations
    (List.length o.Bank.failures);
  List.iter
    (fun (f : Bank.failure) ->
      Format.fprintf Table.out
        "  seed %d: %s — shrunk %d -> %d events in %d runs@."
        f.Bank.f_schedule.Schedule.seed
        (Oracle.to_string f.Bank.f_first)
        f.Bank.f_stats.Dream_chaos.Shrink.initial_events f.Bank.f_stats.Dream_chaos.Shrink.final_events
        f.Bank.f_stats.Dream_chaos.Shrink.runs)
    o.Bank.failures

let run ~quick =
  Table.heading "chaos coverage: deterministic schedule bank against the oracle suite";
  let schedules = if quick then 40 else 200 in
  let o = Bank.run ~schedules ~seed:42 () in
  print_outcome o;
  let module S = Dream_obs.Bench_snapshot in
  let count name direction v =
    S.metric ~unit_:"count" ~direction name (float_of_int v)
  in
  [
    (* Exact-match gates: any violation or differential divergence fails,
       and a drop in exercised coverage is a regression too. *)
    count "violations" S.Lower_better o.Bank.violations;
    count "differential_ok" S.Higher_better (if o.Bank.differential_ok then 1 else 0);
    count "recoveries" S.Higher_better o.Bank.recoveries;
    count "checkpoints" S.Higher_better o.Bank.checkpoints;
    count "torn_tail_checks" S.Higher_better o.Bank.torn_tail_checks;
    count "storm_submissions" S.Higher_better o.Bank.storm_submissions;
  ]
