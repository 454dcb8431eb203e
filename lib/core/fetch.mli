(** Counter fetch: the controller's one path for reading a task's TCAM
    counters each epoch.

    Every read goes through the switch's fallible channel
    ({!Dream_switch.Switch.read}).  Timed-out batches are retried with
    exponential backoff while the epoch's retry budget lasts
    ({!Dream_fault.Fault_model.retry_budget_fraction} of the epoch) and,
    in degraded mode, the epoch deadline; a down, unreachable or
    breaker-skipped switch, or a fetch abandoned after retries, falls back
    to the previous epoch's readings.  Without a fault model a switch is
    never down or partitioned, has latency factor 1.0 and always reads
    a count, so this path reduces exactly to reading the TCAMs directly: no
    retry, no fallback, no extra modelled time.

    [Fetch] alone owns degraded mode: the circuit breakers, the deadline
    that sheds load, the staleness-urgency order and bounded staleness. *)

val shed_max_staleness : int
(** 4: in degraded mode a task whose counters are this many epochs stale
    is never shed again (its fetch runs even if the estimate overshoots
    the remaining deadline), and its accuracy stops decaying. *)

type t

val create :
  config:Config.t ->
  switches:Dream_switch.Switch.t array ->
  breakers:Dream_switch.Breaker.t array option ->
  faults:Dream_fault.Fault_model.t option ->
  tallies:Metrics.Tallies.t ->
  registry:Dream_obs.Registry.t ->
  trace:Dream_obs.Trace.t option ->
  t
(** [breakers] are a checkpoint's, or [None] to build one per switch in
    degraded mode and none otherwise.  Without breakers, degraded mode is
    off. *)

val breakers : t -> Dream_switch.Breaker.t array
(** Indexed by switch id; empty outside degraded mode. *)

val breaker_states : t -> Dream_switch.Breaker.state array

val reachable : t -> Dream_traffic.Switch_id.t -> bool
(** Up, not partitioned, and not behind an open or probing breaker. *)

val begin_epoch : t -> epoch:int -> healed:int list -> unit
(** Refill the epoch's retry budget and deadline, then advance the
    breakers one epoch; open breakers in the [healed] partition groups
    forfeit their cooldown and probe now. *)

val schedule : t -> Runtime.t array -> int -> Runtime.t array
(** [schedule f runtimes n], the fetch order of the tasks
    [runtimes.(0 .. n-1)], given in task-id order: in degraded mode an
    array of [f]'s own, refilled with the most stale first (ties keep
    their order) and valid until the next call; otherwise [runtimes]. *)

val draw : t -> Runtime.t -> Dream_traffic.Epoch_data.t
(** Draw the task's next epoch of traffic from its source, counting how
    the per-switch aggregates were built (observability only).  The
    controller draws just before {!read}, so the world's cost stays out
    of the fetch. *)

val read : t -> Runtime.t -> Dream_traffic.Epoch_data.t -> Dream_traffic.Switch_mask.t
(** Fetch the task's counters for this epoch's traffic from every switch
    holding its rules, in switch order, and deliver each switch's
    readings to the task's monitor ({!Dream_tasks.Monitor.ingest}) as a
    key and volume column, with no list built and, once the read buffers
    have grown, nothing allocated.  Returns the mask of the
    task's switches it could not hear from (served stale or not at all),
    so the caller can decay the task's estimated accuracy.  In degraded
    mode a task whose expected fetch cost overruns the remaining deadline
    is shed: it reports from stale counters without any fetch being
    issued. *)

val bound_staleness : t -> Runtime.t -> Dream_traffic.Switch_mask.t -> unit
(** Called after the task estimated, with {!read}'s mask.  Under a fault
    model each masked switch decays the task's accuracy by
    {!Dream_fault.Fault_model.stale_decay},
    except in degraded mode once its staleness reached
    {!shed_max_staleness}.  Then, in degraded mode, staleness resets to 0
    on an empty mask and otherwise rises by one. *)

val fault_ms : t -> float
(** Modelled control-loop time the fault layer added this epoch: straggler
    inflation, retry backoff and unreachable probes. *)
