(** Uniform front-end over the three allocation strategies the paper
    evaluates (DREAM, Equal, Fixed_k), so the controller and the
    experiment harness can swap them with a single parameter. *)

type strategy =
  | Dream of Dream_allocator.config
  | Equal
  | Fixed of int  (** the k of Fixed_k: each task reserves capacity / k *)

val strategy_name : strategy -> string

type t

val create : strategy -> capacities:(Dream_traffic.Switch_id.t * int) list -> t

val try_admit : t -> Task_view.t -> bool
(** DREAM: headroom-based admission control.  Equal: always admits.
    Fixed: admits while the reservation fits everywhere. *)

val force_admit : t -> Task_view.t -> unit
(** Journal replay: apply a recorded admission outcome without re-running
    the admission decision (whose inputs included transient headroom state
    that checkpoints do not carry). *)

val release : t -> task_id:int -> unit

val reallocate : t -> Task_view.table -> unit
(** Run one allocation round over the table's rows, in ascending id
    order (a no-op for Equal and Fixed, whose allocations are purely
    membership-derived).  @raise Invalid_argument from DREAM's round on
    rows out of id order. *)

val allocation_on : t -> task_id:int -> Dream_traffic.Switch_id.t -> int
(** The task's allocation on a switch, 0 where it holds none. *)

val total_of : t -> task_id:int -> int
(** The task's allocation summed over every switch. *)

val congested : t -> Dream_traffic.Switch_id.t -> bool
(** Only DREAM reports congestion; the baselines never drop. *)

val supports_drop : t -> bool

val dream : t -> Dream_allocator.t option
(** Access to DREAM-specific observability (phantom, headroom) in tests
    and benchmarks. *)

val force_allocation :
  t -> task_id:int -> switch:Dream_traffic.Switch_id.t -> alloc:int -> unit
(** Journal replay hook; a no-op for membership-based strategies whose
    allocations are implied by admissions. *)

val codec : t Dream_util.Codec.t
(** The strategy tag and the underlying allocator's state, as a
    checkpoint holds them. *)
