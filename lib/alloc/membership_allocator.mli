(** The paper's two baselines (Section 6.1), one per-switch membership
    table with two share rules:

    - {b Equal}: every task on a switch gets an equal share of its
      capacity, recomputed as tasks join and leave.  Equal never rejects
      and never drops; under overload shares shrink until tasks starve —
      the pathology DREAM's admission control avoids.
    - {b Fixed_k} (Figure 16): every task reserves capacity / k entries
      on each switch it has traffic on, and is rejected when any of those
      switches cannot supply the reservation.  Larger reservations satisfy
      fewer tasks and reject more; Fixed never drops. *)

type rule =
  | Equal
  | Fixed of int  (** the k of Fixed_k *)

type t

val create : rule -> capacities:(Dream_traffic.Switch_id.t * int) list -> t
(** [capacities] lists switches [0 .. n-1] in order.
    @raise Invalid_argument on a non-positive capacity, switches out of
    order, or [Fixed k] with [k <= 0]. *)

val try_admit : t -> Task_view.t -> bool
(** Join the task on every switch it sees.  Equal always admits; Fixed
    admits while the reservation fits on every one of them. *)

val force_admit : t -> Task_view.t -> unit
(** Journal replay: apply a recorded admission without re-deciding it. *)

val release : t -> task_id:int -> unit

val allocation_on : t -> task_id:int -> Dream_traffic.Switch_id.t -> int
(** The task's allocation on a switch: 0 where it is not a member.  Equal
    gives capacity / n (remainders to the lowest task ids; when there are
    more tasks than entries, the excess tasks get zero); Fixed gives
    max 1 (capacity / k).  @raise Invalid_argument on an unknown
    switch. *)

val total_of : t -> task_id:int -> int
(** The task's allocation summed over every switch. *)

val codec : rule -> t Dream_util.Codec.t
(** Per-switch task membership of a table of the given rule, as a
    checkpoint holds it: an [equal_allocator] or a [fixed_allocator]
    section. *)
