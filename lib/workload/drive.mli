(** The scenario driver: one controller fed from one arrival schedule,
    advanced one epoch at a time (Section 6.1's workload shape — tasks
    arrive, run, and the controller ticks every epoch).

    Every experiment, the chaos harness and the CLI drive a controller
    through this module and keep only their own probes between the calls.
    Two invariants hold for every run:

    - the epoch is always [Controller.epoch] of the current controller, so
      a fail-over successor resumes the schedule where its predecessor
      stopped;
    - storms are fed unconditionally: {!arrive} submits as many storm-pool
      tasks as the last tick requested.  Only fault models with a storm
      rate or scheduled storms ever request any, so runs without them are
      unaffected. *)

type t

val storm_pool : Scenario.t -> Arrival.submission list
(** The tasks admission storms draw from, in draw order: a second arrival
    schedule derived from the scenario (seed + 7919, half the tasks, a
    quarter of the mean duration), so a (scenario, fault seed) pair always
    storms identically. *)

val create :
  ?journal:Dream_recovery.Journal.sink ->
  config:Dream_core.Config.t ->
  strategy:Dream_alloc.Allocator.strategy ->
  Scenario.t ->
  t
(** A fresh controller at epoch 0 on the scenario's network, with
    [journal] attached.  No checkpoint is taken yet. *)

val controller : t -> Dream_core.Controller.t
(** The current controller (a new one after each successful {!fail_over}). *)

val storm_submissions : t -> int
(** Storm-pool tasks submitted so far. *)

val arrive : t -> unit
(** Submit the storm tasks the last tick requested (as many as the pool
    still holds, in pool order), then every scheduled task whose arrival
    epoch has come.  Call once per epoch, before {!tick}. *)

val tick : t -> unit

val step : t -> unit
(** {!arrive}, then {!tick}. *)

val checkpoint : t -> unit
(** Checkpoint the controller (truncating the journal) and keep the
    document for {!fail_over}. *)

val fail_over : t -> (unit, string) result
(** Replace the controller with one recovered from the last checkpoint and
    the journal, on the surviving network, at the current epoch; re-attach
    the journal and checkpoint the successor at once, so a second crash
    before the next {!checkpoint} does not forget this one.  [Error] (the
    controller is kept) without a journal or a checkpoint, or when
    recovery refuses the checkpoint. *)

val finish : t -> Dream_core.Controller.t
(** Finalize the current controller and return it. *)
