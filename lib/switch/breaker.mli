(** Per-switch circuit breaker for the control channel.

    Sustained adversity (a partitioned group, a switch whose channel times
    out every epoch) would otherwise make the controller burn its retry
    budget on the same dead switch every tick.  The breaker wraps the
    retry machinery with the classic three-state machine: [Closed] passes
    calls through and counts consecutive failures; after
    {!failure_threshold} failures it trips to [Open], where calls are
    skipped outright for {!cooldown_epochs} epochs; then one probe is
    allowed ([Half_open]) — success closes the breaker, failure re-opens
    it for another full cooldown.

    The machine is deliberately randomness-free: transitions depend only
    on the sequence of recorded outcomes and {!begin_epoch} calls, so a
    seeded fault schedule yields a deterministic transition history.

    A breaker keeps no tallies of its own: the controller's fetch stage
    steps every breaker and counts the trips and probes it sees
    ([Metrics.breaker_opens], [Metrics.breaker_probes]). *)

val failure_threshold : int
(** 3, the consecutive failures that trip a breaker. *)

val cooldown_epochs : int
(** 4, the epochs a breaker stays open before probing. *)

type state = Closed | Open | Half_open

type t

val create : unit -> t
(** Fresh breaker in [Closed]. *)

val state : t -> state

val begin_epoch : t -> unit
(** Advance the cooldown clock; an [Open] breaker whose cooldown elapsed
    becomes [Half_open] (the next call is the probe). *)

val allow : t -> bool
(** May the controller attempt a call this epoch?  [false] only when
    [Open]. *)

val hint_probe : t -> unit
(** External evidence the channel recovered (e.g. a partition-heal event):
    an [Open] breaker forfeits the rest of its cooldown and probes at the
    next {!begin_epoch}.  No-op in any other state. *)

val record_success : t -> unit
(** A call completed: resets the failure count; closes a [Half_open]
    breaker. *)

val record_failure : t -> unit
(** A call failed after exhausting its retries: counts toward the
    threshold when [Closed]; immediately re-opens a [Half_open] breaker. *)

val legal_transition : from:state -> into:state -> bool
(** May a breaker observed in [from] at one epoch boundary be observed in
    [into] at the next?  Observations are epoch-granular — several
    micro-steps can happen inside one tick (cooldown elapses, probe
    succeeds), so [Open] to [Closed] is legal — but [Closed] to
    [Half_open] is not: probing is only reachable through [Open], and no
    composition of per-tick steps skips that.  Shared by the chaos oracle
    and the property tests so both enforce the same state-machine law. *)

val state_to_string : state -> string

val state_code : state -> int
(** Gauge encoding: [Closed] 0, [Half_open] 1, [Open] 2. *)

val codec : t Dream_util.Codec.t
(** The full mutable state, as a checkpoint holds it: state, failure
    streak and cooldown left.  A checkpoint pins {!failure_threshold} and
    {!cooldown_epochs} once, in its [[build]] section. *)
