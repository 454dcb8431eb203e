(** Seed banks: generate-and-check many schedules, shrink what fails.

    One {!run} is the unit of chaos testing: a master seed expands into
    [schedules] independent schedule seeds, each schedule runs through the
    {!Harness} with the full {!Oracle} suite, and any failing schedule is
    minimized by {!Shrink} into a replayable reproducer.  The whole bank
    is a pure function of its arguments — same seed, same bank, byte for
    byte — which is what lets CI pin a fixed seed bank and lets a
    reproducer file replay anywhere. *)

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

type failure = {
  f_schedule : Schedule.t;  (** the original failing schedule *)
  f_canary : bool;
  f_first : Oracle.violation;  (** first violation of the original run *)
  f_minimized : Schedule.t;  (** the shrunk reproducer *)
  f_stats : Shrink.stats;
}

type outcome = {
  schedules : int;
  seed : int;
  horizon : int;
  events_per_schedule : int;
  canary : bool;
  coverage : coverage;  (** events scheduled across the whole bank *)
  recoveries : int;  (** controller fail-overs survived, bank-wide *)
  checkpoints : int;
  torn_tail_checks : int;
  storm_submissions : int;
  violations : int;  (** total violations across all schedules *)
  differential_ok : bool;
      (** the zero-event schedule was byte-identical to the seed run *)
  failures : failure list;  (** minimized, at most 3 *)
}

val run :
  ?canary:bool ->
  ?horizon:int ->
  ?events:int ->
  schedules:int ->
  seed:int ->
  unit ->
  outcome
(** Run a bank.  [canary] plants the demonstration bug in every schedule
    (see {!Harness.run}).  At most 3 failing schedules are shrunk; later
    failures still count toward [violations].
    @raise Invalid_argument if [schedules < 1]. *)

val reproducer_to_string : failure -> string
(** One-line JSON document: version tag, canary flag, first violation and
    the minimized schedule with its seed. *)

val reproducer_of_string : string -> (bool * Schedule.t, string) result
(** Parse and bounds-check a reproducer file through the same description
    {!reproducer_to_string} writes with; returns (canary, schedule) ready
    for {!Harness.run}. *)
