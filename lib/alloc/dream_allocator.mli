(** The DREAM per-switch resource allocator (Section 4).

    Each switch keeps, per admitted task, an allocation and an adaptive
    step size.  Every allocation epoch, tasks are classified rich (overall
    accuracy above bound + 0.1, the hysteresis delta), poor (below bound)
    or neutral; rich tasks surrender their step, poor tasks receive the
    pooled resources in proportion to their steps (full steps in arrival
    order, the earliest task first, when the pool falls short).  Step
    sizes grow when a change leaves the status unchanged and shrink when
    the status flips (Figure 4; MM by default), by factor 2 or addend 4,
    kept within \[1, 128\].

    Admission grants a task 1 entry (the floor: tasks never go blind) on
    every switch it touches and a step of 4.  These Section 6.1 values are
    constants, exported so that a checkpoint can pin each once.

    Headroom is a phantom task per switch holding all unallocated entries:
    admission requires its effective headroom (phantom + rich steps - poor
    steps) to reach the headroom target on every switch the task touches;
    poor tasks may drain the phantom below target, and rich tasks refill
    it when no task is poor. *)

val hysteresis : float
(** 0.1, the margin over its bound past which a task is rich. *)

val step_params : Step_policy.params
(** Factor 2, addend 4, steps kept within \[1, 128\]. *)

val initial_step : int
(** 4, an admitted task's step on every switch. *)

val min_allocation : int
(** 1, the floor: an admitted task's entries on every switch it touches. *)

type config = {
  headroom_fraction : float;  (** headroom target as a fraction of capacity (paper: 0.05) *)
  policy : Step_policy.t;  (** the step-size update policy *)
}

val default_config : config
(** 5% headroom, MM. *)

type t

val create : config -> capacities:(Dream_traffic.Switch_id.t * int) list -> t
(** [capacities] lists switches [0 .. n-1] in order.
    @raise Invalid_argument on a non-positive capacity or switches out of
    order. *)

val try_admit : t -> Task_view.t -> bool
(** Admit if effective headroom meets the target on every switch the task
    touches; on success the task gets the floor of 1 entry per switch,
    taken from the phantom. *)

val force_admit : t -> Task_view.t -> unit
(** Journal replay: apply a recorded admission without re-deciding it (the
    original verdict depended on transient headroom state that checkpoints
    do not carry). *)

val release : t -> task_id:int -> unit
(** Return all of a task's entries to the phantom (task finished or
    dropped). *)

val reallocate : t -> Task_view.table -> unit
(** One allocation round over every switch.  The table's rows must be
    exactly the currently admitted tasks, in ascending id order.  The
    round works in columns the allocator keeps, which grow when a task is
    admitted (or a slot forced or restored), so a round allocates nothing.
    @raise Invalid_argument on rows out of id order. *)

val allocation_on : t -> task_id:int -> Dream_traffic.Switch_id.t -> int
(** The task's allocation on a switch, 0 where it holds none.
    @raise Invalid_argument on an unknown switch. *)

val total_of : t -> task_id:int -> int
(** The task's allocation summed over every switch. *)

val congested : t -> Dream_traffic.Switch_id.t -> bool
(** Whether the last round's poor demand outstripped rich supply plus
    phantom on this switch — the signal the controller combines with poor
    streaks to pick drop victims. *)

val check_invariants : t -> (unit, string) result
(** Test hook: allocations positive, and allocations + phantom = capacity
    on every switch. *)

val config : t -> config

val force_allocation :
  t -> task_id:int -> switch:Dream_traffic.Switch_id.t -> alloc:int -> unit
(** Journal replay hook: pin one task's allocation on one switch to a
    recorded value, settling the delta against the phantom so
    conservation holds.  @raise Invalid_argument on a negative value or
    unknown switch. *)

val codec : t Dream_util.Codec.t
(** The allocator's full state — config, per-switch phantom / congestion
    and every slot's allocation, step and status memory — in a
    checkpoint: a restored allocator makes bit-identical decisions from
    the next round on. *)
