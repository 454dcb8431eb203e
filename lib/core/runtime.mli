(** The controller's per-task bookkeeping: an admitted task object, its
    traffic source and ground truth, and the counters the control loop
    keeps about it between epochs.

    {2 Storage lifecycle}

    A task's growable arrays (its {!Dream_tasks.Storage}, and here its
    fresh-rule columns and stale-reading buffers) outlive it.  When the
    controller retires, drops or rejects a task it hands them to a
    {!pool} ({!recycle}), and the next {!create} of a task with the same
    sub-filter count takes the last ones returned: a new record around
    recycled arrays, with only its logical state reset (counts, cursors,
    stamps).  Nothing reads a capacity, so a task behaves the same, bit
    for bit, on recycled or fresh storage; a restore ({!codec}) builds
    fresh storage, and a pool is never checkpointed. *)

type readings = { mutable keys : int array; mutable vols : float array; mutable n : int }
(** One switch's counter readings: volume [vols.(i)] for the prefix key
    [keys.(i)] ({!Dream_prefix.Prefix.key}), [0 <= i < n], in key
    order; [n = -1] when there are none, not even an empty set. *)

type scores = { mutable accuracy_sum : float }
(** The sum of a task's scored accuracies, alone in its record: a float
    record stores its fields unboxed, so adding to it allocates nothing. *)

type t = {
  task : Dream_tasks.Task.t;
  source : Dream_traffic.Source.t;
  ground_truth : Dream_tasks.Ground_truth.t;
  duration : int;  (** lifetime in epochs *)
  arrived_at : int;
  mutable active_epochs : int;
  mutable satisfied_epochs : int;
  scores : scores;
  mutable poor_streak : int;  (** consecutive poor allocation rounds without growth *)
  mutable last_alloc_total : int;
  fresh_rules : int array array;
      (** keys of the rules installed by the last sync, per sub-filter bit
          of the task's topology (a switch, see
          {!Dream_traffic.Switch_mask}): a sorted column whose first
          [last_install_counts.(b)] entries are in use *)
  last_install_counts : int array;  (** their number, per sub-filter bit *)
  stale_counters : readings array;
      (** last successfully fetched readings per sub-filter bit, the
          fallback when a switch is down or a fetch is abandoned; [n = -1]
          until a fetch from the switch succeeds (an empty one has
          [n = 0]), and written only when a fault model is configured *)
  mutable staleness : int;
      (** consecutive epochs this task reported with at least one stale or
          missing switch (degraded mode only; 0 when fully fresh) *)
}

type pool
(** Retired tasks' storage, by sub-filter count. *)

val pool : unit -> pool
(** An empty pool: tasks created from it start on fresh storage. *)

val pooled : pool -> int
(** The storage entries the pool holds. *)

val create :
  config:Config.t ->
  pool:pool ->
  id:int ->
  spec:Dream_tasks.Task_spec.t ->
  topology:Dream_traffic.Topology.t ->
  source:Dream_traffic.Source.t ->
  duration:int ->
  arrived_at:int ->
  t
(** A freshly admitted task: a new task object with the config's accuracy
    mode, zero counters, no rules, ground truth for [spec].  It is built
    on the storage the pool got last for the task's sub-filter count, or
    on fresh storage when it has none.  The one constructor for both a
    live admission and a replayed one. *)

val recycle : pool -> live:int -> t -> unit
(** Hand a retired, dropped or rejected task's storage to the pool.
    [live] counts the tasks live at the time, this one included if it
    was admitted: the pool keeps an entry only while it holds fewer than
    the most tasks it has seen live at once, and the next admission with
    the same sub-filter count takes the last one kept.  Neither the
    runtime nor its task may be used again. *)

val id : t -> int

val view : t -> Dream_alloc.Task_view.t
(** The task as admission sees it. *)

val fill_row : Dream_alloc.Task_view.table -> int -> t -> unit
(** Write the task into a row of the allocation round's table (which has
    the room): its id and bound, and per switch its
    smoothed overall accuracy and the counters it uses. *)

val codec : t Dream_util.Codec.t
(** A running task in a checkpoint; each decode builds on fresh storage.
    The task's last report is not serialized: a restored task has none
    ({!Dream_tasks.Task.last_report} is [None]) until it reports afresh on
    its first tick.  The [drop_priority] line holds the task's id (tasks
    drop in arrival order).  Decoding refuses another drop priority, a
    per-switch entry on a switch the task never sees and an install count
    that is not the number of the switch's fresh rules; the task, source and ground-truth descriptions
    may also raise [Invalid_argument] on out-of-range values. *)
