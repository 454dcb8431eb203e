(** Seeded fault injection for the control channel and switches.

    DREAM's evaluation assumes every counter fetch succeeds and no switch
    ever restarts; this module supplies the failures a real deployment
    sees, deterministically.  A {!spec} fixes per-epoch / per-event rates
    and a seed; the five settings that only ever take one value (mean
    downtime, stale decay, retry budget, partition groups, storm size)
    are constants below, not spec fields, and a checkpoint pins them in
    its [[build]] section.  {!create} expands the seed into two independent
    {!Dream_util.Rng} streams per switch (lifecycle and data-path), so a
    (spec, num_switches) pair always replays the same fault schedule no
    matter how many draws other switches consume.

    The controller drives the model: {!begin_epoch} once per tick to
    advance crash/recovery state, then the per-event predicates as it
    touches each switch, and {!degrade} on every batch of counters it
    reads.  All of them short-circuit without consuming randomness when
    their rate is zero, so a zero-rate spec is behaviourally identical to
    running with no fault model at all. *)

type spec = {
  seed : int;
  crash_rate : float;
      (** per-switch per-epoch crash probability; a crashed switch stays
          down for {!mean_downtime} epochs on average *)
  fetch_timeout_rate : float;  (** probability one counter-fetch batch times out *)
  counter_loss_rate : float;  (** per-rule probability a fetched counter is lost *)
  install_failure_rate : float;  (** per-rule probability an install fails *)
  perturb_stddev : float;  (** relative Gaussian noise on fetched counter values *)
  controller_crash_rate : float;
      (** per-epoch probability the controller itself crashes and must
          recover from its last checkpoint + journal *)
  partition_rate : float;
      (** per-group per-epoch probability the control channel to that
          switch group ({!group_of}) partitions (TCAM state survives; the
          controller just cannot reach it) *)
  mean_partition : float;  (** mean epochs a partition window lasts (>= 1) *)
  partition_eligible : int;
      (** only groups with index < [partition_eligible] ever partition —
          a deterministic knob for "exactly this fraction of the fleet
          can become unreachable" experiments *)
  straggler_fraction : float;
      (** fraction of switches (chosen once, seeded) whose control channel
          is persistently slow *)
  straggler_slowdown : float;
      (** latency multiplier on straggler control channels (>= 1) *)
  storm_rate : float;
      (** per-epoch probability of a tenant admission storm of
          {!storm_size} extra task submissions *)
}

val mean_downtime : float
(** 4: mean epochs a crashed switch stays down. *)

val stale_decay : float
(** 0.9: factor applied to a task's smoothed estimated accuracy for each
    epoch it reports from stale counters. *)

val retry_budget_fraction : float
(** 0.5: fraction of the epoch the controller may spend on fetch retries. *)

val partition_groups : int
(** 4: switches are grouped as [sw mod partition_groups]; a partition
    takes out a whole group at once (correlated reachability). *)

val storm_size : int
(** 6: extra task submissions an organic admission storm injects. *)

val zero : spec
(** All failure rates zero (seed 0, mean partition 8, every group
    eligible, straggler slowdown 4): injects nothing. *)

val uniform : ?seed:int -> float -> spec
(** [uniform ~seed rate] scales every failure mode from one knob: timeout,
    loss and install-failure rates equal [rate]; crashes and perturbation
    at [rate / 10].  @raise Invalid_argument unless [rate] is in [0, 1]. *)

val adversity : ?seed:int -> float -> spec
(** [adversity ~seed level] scales the sustained-adversity modes from one
    knob in [0, 1]: partition and storm rates at [level / 10], fetch
    timeouts at [level / 4], half the fleet stragglers with slowdown
    [1 + 3 * level].  Level 0 equals {!zero}: injects nothing.
    @raise Invalid_argument unless [level] is in [0, 1]. *)

val pp_spec : Format.formatter -> spec -> unit
(** One line, each of the 13 knobs — recorded in the telemetry trace so
    an exported bundle is self-describing about the fault schedule it ran
    under. *)

type t

type events = {
  crashed : Dream_traffic.Switch_id.t list;
  recovered : Dream_traffic.Switch_id.t list;
  controller_crashed : bool;  (** the controller dies at the start of this epoch *)
  partitioned : int list;  (** groups whose control channel partitioned this epoch *)
  healed : int list;  (** groups whose partition window just closed *)
  storm_tasks : int;  (** extra task submissions an admission storm injects now *)
}

val create : spec -> num_switches:int -> t
(** @raise Invalid_argument on out-of-range rates or [num_switches <= 0]. *)

val spec : t -> spec

val begin_epoch : t -> events
(** Advance one epoch: decide which switches crash this epoch (their TCAM
    state is lost), which finish their downtime and come back up, and
    whether the controller itself dies.  Controller-crash draws come from
    a stream split after all per-switch streams, so enabling them never
    perturbs an existing switch fault schedule. *)

val is_down : t -> Dream_traffic.Switch_id.t -> bool

val down_count : t -> int
(** Switches currently down. *)

val fetch_times_out : t -> Dream_traffic.Switch_id.t -> bool
(** Roll one counter-fetch attempt on an up switch; re-roll to retry. *)

val install_fails : t -> Dream_traffic.Switch_id.t -> bool
(** Roll one rule-install attempt. *)

val degrade : t -> Dream_traffic.Switch_id.t -> keys:int array -> vols:float array -> int -> int
(** [degrade t sw ~keys ~vols n] applies this epoch's counter loss and
    perturbation to a successful batch of [n] readings, in place, and
    returns how many survive, closed up in key order.  The rates are the
    maximum of the spec's [counter_loss_rate] / [perturb_stddev] and every
    open noise window.  The draws come from [sw]'s data stream through
    {!Dream_util.Rng.thin_jitter}: one loss draw per reading if the loss
    rate is positive, then, if the stddev is positive, one Gaussian draw
    per survivor for its multiplicative noise (clamped at 0).  Allocates
    nothing. *)

val group_of : Dream_traffic.Switch_id.t -> int
(** The partition group a switch belongs to ([sw mod partition_groups]). *)

val is_partitioned : t -> Dream_traffic.Switch_id.t -> bool
(** The switch's group is inside a reachability window: its TCAM keeps
    counting but the controller cannot fetch, install or delete. *)

val partitioned_count : t -> int
(** Switches currently unreachable through a partition. *)

val latency_factor : t -> Dream_traffic.Switch_id.t -> float
(** Control-channel latency multiplier: [straggler_slowdown] on straggler
    switches, 1.0 everywhere else. *)

(** {1 Scripted injections}

    The chaos harness stages explicit fault events on top of (or instead
    of) the organic rate-driven ones.  Epochs are the fault model's own
    counter: the N-th {!begin_epoch} call runs epoch N (1-based), so an
    injection staged [~at:n] fires during the n-th call.  Injections
    consume no randomness when they fire (scripted timelines never perturb
    the organic RNG streams) and are included in {!codec}, so a
    restored checkpoint replays the identical timeline.  Events of one
    epoch fire kind by kind, in the constructor order below, and in
    staging order within a kind. *)

type injection =
  | Crash of { switch : Dream_traffic.Switch_id.t; downtime : int }
      (** Crash [switch] for [downtime] epochs.  Skipped if the switch is
          already down (or recovered that very epoch): the one-epoch
          recovery grace organic crashes honour applies here too. *)
  | Controller_crash  (** [begin_epoch] reports [controller_crashed = true]. *)
  | Partition of { group : int; span : int }
      (** Open a reachability window on [group] lasting [span] epochs.
          Unlike organic partitions, any group may be targeted, including
          those beyond [partition_eligible].  Skipped if the group is
          already partitioned (or healed that very epoch). *)
  | Heal of { group : int }
      (** Surface [group] in [events.healed], closing any open window
          early.  Firing it on a group that is {e not} partitioned is
          allowed and deliberate: the controller answers a heal by hinting
          breaker probes, so a spurious heal provokes exactly the
          probe/heal race the chaos harness wants to explore. *)
  | Storm of { tasks : int }
      (** Add [tasks] admissions to [events.storm_tasks], on top of
          whatever an organic storm contributes. *)
  | Noise of { span : int; timeout_rate : float; loss_rate : float; perturb_stddev : float }
      (** For [span] epochs, raise the effective fetch-timeout and
          counter-loss rates and the perturbation stddev to at least these
          values (the maximum of the spec rate and every open window
          applies). *)

val check : num_switches:int -> injection -> (unit, string) result
(** The one range check: a known switch, a group below
    {!partition_groups}, a downtime, span or storm of at least 1, rates
    in [0, 1] and a finite non-negative stddev. *)

val schedule : t -> at:int -> injection -> unit
(** Stage an injection for epoch [at].  @raise Invalid_argument when
    {!check} fails against this model or [at] is not in the future. *)

val pending_injections : t -> int
(** Scheduled events that have not yet fired (noise windows count until
    they close) — lets a harness assert a timeline was fully consumed. *)

val codec : t Dream_util.Codec.t
(** The full model state — spec, epoch, every RNG stream and downtime
    clock — in a checkpoint, so a restored run replays the exact same
    fault schedule suffix.  Decoding raises [Invalid_argument] on
    out-of-range rates or an injection {!check} refuses. *)
