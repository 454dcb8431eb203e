(** A task object (Section 5.1, Algorithm 1).

    The controller drives one of these per admitted task, each epoch:
    fetch (the switches' readings of the rules its monitor configured,
    delivered through {!Monitor.ingest}), {!estimate} (createReport and
    estimateAccuracy), {!smooth} (the raw estimate folded into the
    EWMA-smoothed overall accuracies the allocator reads), then — after
    the allocator has decided — {!configure} (configureCounters) with the
    new per-switch allocations, and finally rule sync, which saves the
    monitor's key run on each switch ({!Monitor.rules_start}) to its TCAM.

    Per-switch arguments and values are indexed by the sub-filter bit of
    the task's topology ({!Dream_traffic.Switch_mask}); only the functions
    facing the data plane take switch ids. *)

type t

type accuracy_mode =
  | Overall  (** allocate on [max (global, local)] per switch (the paper's choice) *)
  | Global_only  (** ablation: allocate on global accuracy alone (Section 4
          explains why this misidentifies which switch needs resources) *)

val accuracy_history : float
(** 0.4, the history weight of the EWMAs smoothing a task's accuracies
    (the paper's alpha). *)

val create :
  id:int ->
  spec:Task_spec.t ->
  topology:Dream_traffic.Topology.t ->
  ?accuracy_mode:accuracy_mode ->
  storage:Storage.t ->
  unit ->
  t
(** [accuracy_mode] defaults to [Overall].  The monitor, report buffer
    and {!read_traffic}'s buffers are built on [storage]:
    {!Storage.create}'s for a bare task, or one a retired task handed back
    ({!release}), whose room the new task starts with.  The task resets
    its logical state and never reads what the storage held, so either
    behaves the same, bit for bit.  A {!Ground_truth} may share the
    storage: it uses other buffers. *)

val release : t -> Storage.t
(** Hand the task's storage back, with every column as grown, for the
    next task built on it.  The task must not be used again. *)

val id : t -> int
val spec : t -> Task_spec.t
val monitor : t -> Monitor.t
val topology : t -> Dream_traffic.Topology.t

val switches : t -> Dream_traffic.Switch_mask.t
(** Switches the task needs counters on. *)

val allocations : t -> int array
(** Allocations applied by the last {!configure}, per sub-filter bit (one
    counter per relevant switch before the first allocation).  Do not
    mutate. *)

val read_traffic : t -> Dream_traffic.Epoch_data.t -> unit
(** A fault-free fetch without a TCAM: on every switch the task sees, its
    monitor's key run read off that switch's aggregate
    ({!Dream_traffic.Aggregate.read_keys}) and delivered between
    {!Monitor.clear_readings} and {!Monitor.seal_readings}, through one
    buffer pair kept in the task's storage.  For drivers of a bare task
    (figures, examples, tests); the controller fetches from the switches'
    TCAMs. *)

val estimate : t -> epoch:int -> Accuracy.t
(** This epoch's report, written into {!items}, and raw accuracy
    estimate, from one detection pass.  For CD tasks it also folds this
    epoch's volumes into the per-counter means.  The estimate is the
    estimator's own column, refilled by the next call.  Allocates nothing
    once the task's buffers have grown: the per-epoch path. *)

val smooth : t -> Accuracy.t -> unit
(** Fold a raw estimate into the smoothed accuracies, each an EWMA of
    history weight {!accuracy_history} whose first sample seeds it: the
    global figure, and on each switch the task sees, the overall figure
    [Float.max global local] ([global] under [Global_only]).  The
    averages live unboxed in one float column, so this allocates
    nothing. *)

val items : t -> Items.t
(** The items of the last {!estimate}'s report, in key order; refilled by
    the next one.  Do not mutate. *)

val last_report : t -> Report.t option
(** The last {!estimate}'s report, built from {!items}; [None] before the
    first since {!create} or a decode of {!codec}. *)

val smoothed_global : t -> float
(** EWMA-smoothed estimated global accuracy (1 before any estimate). *)

val poor : t -> bool
(** Whether {!smoothed_global} is below the spec's accuracy bound
    (Section 5.2's poor task).  Unlike reading the float, this boxes
    nothing. *)

val decay_accuracy : t -> bit:int -> factor:float -> unit
(** Scale the smoothed global accuracy and sub-filter [bit]'s smoothed
    overall accuracy by [factor].  The controller calls
    this when a task reports from stale counters — degraded visibility the
    estimators cannot see, which must still reach the allocator. *)

val configure : t -> workspace:Divide_merge.t -> allocations:int array -> unit
(** Re-score counters and run divide-and-merge on [workspace] under the
    new allocations (per sub-filter bit, 0 on a switch outside
    {!switches}).  The task copies them into its own array
    ({!allocations}).  Any workspace gives the same counters, bit for bit;
    one shared by every task keeps its room across them. *)

val counters_used : t -> int -> int
(** TCAM entries the task occupies on the switch of a sub-filter bit. *)

val allocator_view :
  t -> overall:float array -> used:int array -> pos:int -> num_switches:int -> unit
(** The allocator's input (Section 4), written for every switch [sw] of
    [0 .. num_switches-1] at [pos + sw]: the EWMA-smoothed
    [max (global, local)] accuracy on the switch and the TCAM entries the
    task occupies there ({!counters_used}), or 1.0 and 0 on a switch
    outside the task's topology.  The values go straight into the arrays,
    so no float is boxed. *)

val codec : storage:Storage.t -> t Dream_util.Codec.t
(** The full task state — spec, topology, smoothed accuracies,
    allocations and the monitor's counter configuration — in a
    checkpoint.  Decoding builds on [storage] as {!create} takes it, so a
    restored task produces bit-identical reports, estimates and
    configurations from the next epoch on; it refuses an overall accuracy
    or allocation on a switch the task never sees. *)
