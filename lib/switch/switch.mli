(** One simulated switch: an identifier, its TCAM measurement pool, and
    the fallible southbound channel the controller reaches it through.

    The network is a flat set of these (DREAM is topology-agnostic: tasks
    only care which switches see their traffic).  Every operation the
    controller issues can fail the way a real southbound channel fails:
    the switch may be [`Down] (crashed, its TCAM contents lost), a counter
    fetch may [`Timeout], a fetched batch may come back with counters
    missing or perturbed, and a rule install may simply not land
    ([`Failed]).

    Without a fault model every operation reduces exactly to the
    underlying {!Tcam} call — same results, same stats — so fault-free
    runs are bit-for-bit identical to driving the TCAM directly. *)

type install_error = [ `Capacity | `Down | `Failed | `Unreachable ]

type t

val create :
  ?faults:Dream_fault.Fault_model.t -> id:Dream_traffic.Switch_id.t -> capacity:int -> unit -> t
(** The fault model is shared across the network; pass the same [t] to
    every switch so per-switch streams line up with ids. *)

val id : t -> Dream_traffic.Switch_id.t

val tcam : t -> Tcam.t

val capacity : t -> int

val network :
  ?faults:Dream_fault.Fault_model.t -> num_switches:int -> capacity:int -> unit -> t array
(** [network ~num_switches ~capacity ()] builds switches 0..n-1 with equal
    capacity, indexed by id, all driven by [faults].
    @raise Invalid_argument if [num_switches <= 0] or [capacity <= 0]. *)

val down : t -> bool
(** Whether the switch is currently crashed (always [false] without a
    fault model). *)

val partitioned : t -> bool
(** Whether the control channel to this switch is currently partitioned:
    the TCAM keeps counting (unlike a crash) but every control operation
    returns [`Unreachable] until the window closes. *)

val latency_factor : t -> float
(** Control-channel latency multiplier for this switch (straggler
    inflation); 1.0 without a fault model. *)

val read : t -> Tcam.rules -> Dream_traffic.Aggregate.t -> keys:int array -> vols:float array -> int
(** Fetch the counters of one task's column of this switch's TCAM
    ({!Tcam.find}) into the caller's buffers, as {!Tcam.read} does (both
    must hold the column's {!Tcam.count} entries): the count [n >= 0]
    with the readings in [keys.(0 .. n-1)] and [vols.(0 .. n-1)], in key
    order, or a negative code:
    {!read_down}, {!read_unreachable}, or any other for a timeout.  A timeout
    still prices the fetch in the TCAM stats (the bytes were sent; the
    reply never came), so retries cost modelled control-loop time.  On
    success, individual counters may have been dropped
    ([counter_loss_rate]) or perturbed ([perturb_stddev]); the survivors
    close up in key order.  Nothing is allocated. *)

val read_down : int
(** The switch is down. *)

val read_unreachable : int
(** The control channel is partitioned: no fetch was issued. *)

val install_at : t -> Tcam.rules -> int -> int -> (unit, install_error) result
(** [install_at t rules i key] installs the rule of a prefix key
    ({!Dream_prefix.Prefix.key}) at index [i] of one task's column of
    this switch's TCAM, as {!Tcam.insert_at} does, unless the switch is
    down, its channel partitioned, or the fault model fails the install,
    checked in that order.  Only the last draws from the fault model. *)

val remove_at : t -> Tcam.rules -> int -> (unit, [ `Down | `Unreachable ]) result
(** [remove_at t rules i] removes the rule at index [i] of one task's
    column of this switch's TCAM, as {!Tcam.remove_at} does, unless the
    switch is down or its channel partitioned. *)

val crash : t -> unit
(** Wipe the switch's TCAM (crash semantics: state lost, no priced
    deletes).  The fault model decides {e when}; the controller applies it. *)
