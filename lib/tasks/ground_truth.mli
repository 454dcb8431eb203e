(** Ground truth and real accuracy, for evaluation only.

    The paper's simulations score tasks with real accuracy computed
    offline; DREAM itself never sees these values.  Ground truth for HH
    and HHH is stateless per epoch; CD keeps per-leaf EWMA means across
    the task's whole trace (history weight {!Task_spec.cd_history}), so
    {!evaluate} must be called once per epoch, in order.

    Everything is a key column ({!Items}) in key order, reused across
    epochs: the epoch's leaf volumes are run sums over the aggregate's
    sorted addresses, the HHH truth walk carries each node's range of the
    aggregate's address indices down and splits it between the children
    with one search, the CD means are a key column merged against the leaves, and hits are one
    merge of the report's keys with the true ones. *)

type t

type score = { mutable real : float }
(** One cell holding a real accuracy unboxed: reading or writing [real]
    allocates nothing. *)

val create : storage:Storage.t -> Task_spec.t -> t
(** Ground truth for a task, in [storage]'s key columns with the room they
    have: a task and its ground truth may share one storage.  Nothing the
    columns held is read. *)

val evaluate : t -> Dream_traffic.Epoch_data.t -> Items.t -> score
(** The real accuracy of one epoch's report items (strictly ascending
    keys, as {!Task.items} holds them) against the network-wide traffic:
    recall (HH, CD) or precision (HHH).  Accuracy is 1 when it is
    undefined (no true items for recall, empty report for precision).
    The result is [t]'s own cell, overwritten by the next call. *)

val true_heavy_hitters : Task_spec.t -> Dream_traffic.Aggregate.t -> Items.t
(** Leaf prefixes whose volume exceeds the threshold, as a fresh key
    column. *)

val codec : spec:Task_spec.t -> storage:Storage.t -> t Dream_util.Codec.t
(** The CD per-leaf means, in key order, as a checkpoint holds them
    (none for HH/HHH tasks, which keep no cross-epoch state here).
    Decoding fills [storage]'s columns as {!create} takes them; it refuses
    a mean on a prefix that is not a leaf ([leaf_length] long) under the
    filter, and means not in strictly ascending prefix order. *)
