(** Controller fail-over: bring the last checkpoint forward through the
    journal suffix, then audit the surviving switches against the result.

    {!Controller.recover} is parse, check, {!replay}, rebuild on the live
    network, {!reconcile}. *)

val replay :
  Checkpoint.t ->
  Dream_recovery.Journal.entry list ->
  at_epoch:int ->
  (Checkpoint.t, string) result
(** Fold the journal into the parsed checkpoint, in order: an admission
    builds its runtime through {!Runtime.create} and force-admits it, a
    rejection adds {!Metrics.rejected}, an allocation is forced, a task
    end releases the task, hands its storage to the admissions after it
    ({!Runtime.recycle}) and adds its record, and switch crashes and
    recoveries bump their tallies.  Then every task's traffic source is
    fast-forwarded to [at_epoch] (from the checkpoint epoch, or from its
    admission for a replayed task) by discarding epochs, which consumes
    exactly the RNG draws the live run would have; the result resumes at
    [at_epoch] with one more controller crash counted.

    The checkpoint's allocator and sources are updated in place, and no
    other state is touched.  [Error] when an entry cannot be applied (an
    unknown switch, a negative allocation, an undecodable source). *)

val reconcile :
  switches:Dream_switch.Switch.t array ->
  runtimes:Runtime.t list ->
  tallies:Metrics.Tallies.t ->
  trace:Dream_obs.Trace.t option ->
  epoch:int ->
  unit
(** Audit every reachable switch against the rules [runtimes] want,
    walking each TCAM column against its task's key run
    ({!Dream_tasks.Monitor.rules_start}): strays, the rules of owners not
    in [runtimes] among them, are removed first, then missing rules
    installed in [runtimes] order while the table has room, both counted
    in [tallies] and traced as a [reconcile] event.  A switch that is down or
    partitioned is skipped; it gets its rules back through the
    recovered-switch reinstall path once reachable. *)
