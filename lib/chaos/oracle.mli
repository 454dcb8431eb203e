(** Invariant oracles the chaos harness runs against every schedule.

    Each oracle returns the violations it found (empty list = holds); the
    harness accumulates them and a non-empty total fails the schedule,
    which the shrinker then minimizes.  Oracles are read-only: running
    them must never change the behaviour of the run they observe (the one
    exception is {!staleness}'s bookkeeping table, which belongs to the
    oracle itself, not the system under test). *)

type violation = { epoch : int; code : string; detail : string }

val to_string : violation -> string

val invariants : epoch:int -> Dream_core.Controller.t -> violation list
(** The {!Dream_recovery.Invariant} suite (conservation, capacity,
    disjoint partition of filters, occupancy vs allocation, rule
    ownership, torn-epoch capacity) via
    {!Dream_core.Controller.check_invariants_now} — identical semantics to
    the controller's own in-tick check. *)

val breaker_transitions :
  epoch:int ->
  prev:Dream_switch.Breaker.state array ->
  now:Dream_switch.Breaker.state array ->
  violation list
(** Epoch-over-epoch state legality per {!Dream_switch.Breaker.legal_transition}.
    The harness resets [prev] across a controller fail-over: restoring a
    checkpoint legitimately rewinds breakers to older states. *)

val seed_staleness :
  controller:Dream_core.Controller.t -> prev:(int, int) Hashtbl.t -> unit
(** Rebuild [prev] from the controller's current staleness levels.  The
    harness calls this after a fail-over: the restored controller's levels
    come from checkpoint + journal replay, so comparing them against the
    pre-crash baseline would manufacture growth that never happened. *)

val staleness :
  epoch:int ->
  cap:int ->
  noise_active:bool ->
  controller:Dream_core.Controller.t ->
  prev:(int, int) Hashtbl.t ->
  violation list
(** Bounded staleness: past [cap]
    ({!Dream_core.Fetch.shed_max_staleness}), a task's stale streak may only grow while one
    of its switches is down, partitioned or behind a non-closed breaker,
    or while a scripted noise window ([noise_active]) is open.  Growth
    beyond the cap in calm conditions means the deadline scheduler shed a
    task it had promised not to.  [prev] holds last epoch's levels and is
    updated in place. *)

val checkpoint_roundtrip : epoch:int -> Dream_core.Controller.t -> violation list
(** Snapshot, restore a standalone controller from it, snapshot again:
    the two documents must be byte-identical. *)

val torn_tail :
  epoch:int -> drop:int -> Dream_recovery.Journal.entry list -> violation list
(** Serialize the journal, cut [drop] bytes off the tail, re-parse: the
    parser must succeed and recover exactly a prefix of what was written
    (a torn tail is forgivable, a corrupted value is not). *)
