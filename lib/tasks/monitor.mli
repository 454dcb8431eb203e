(** Monitor configuration of one task: the set of prefixes it currently
    counts, and the task-independent divide-and-merge algorithm
    (Algorithm 2) that reshapes this set to fit per-switch allocations.

    Invariant: the monitored prefixes always partition the task's flow
    filter — divide replaces a prefix by both children, merge replaces all
    descendants of an ancestor by that ancestor (the paper's footnote 6:
    merging to the common ancestor avoids overlapping counters).  A counter
    occupies one TCAM entry on every switch in its S set (the switches that
    can see its traffic).

    The counters are held in one array in prefix order.  Since they
    partition the filter, the counters under any prefix are one contiguous
    run of it, so lookups, merges, rule lists and trie walks are bisects
    over that array. *)

type t

val create : spec:Task_spec.t -> topology:Dream_traffic.Topology.t -> t
(** Initial configuration: a single counter on the task's flow filter
    (Section 5.1: each new task starts with one counter). *)

val spec : t -> Task_spec.t

val topology : t -> Dream_traffic.Topology.t

val num_counters : t -> int

val find : t -> Dream_prefix.Prefix.t -> Counter.t option
(** The counter on exactly this prefix: one bisect over the slots. *)

val iter : (Counter.t -> unit) -> t -> unit
(** Visit the counters in prefix order. *)

val fold : (Counter.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] is [f c1 (f c2 (... (f cn init)))] over the counters
    [c1 ... cn] in prefix order, like [List.fold_right]: consing builds a
    list in prefix order. *)

val fold_bottom_up :
  t -> f:(Dream_prefix.Prefix.t -> Counter.t option -> 'a list -> 'a) -> 'a
(** Post-order walk of the prefix trie the counters imply: every prefix on
    a path from the task's filter down to a counter, the right subtree
    visited before the left.  [f prefix counter child_results] gets the
    node's counter (a leaf, under the partition invariant) or [None] for a
    structural node, and the results of its 1 or 2 children, left first.
    Returns the filter's result.  No trie is built: each node's counters
    are one run of slots, split in two by a bisect. *)

val switches : t -> Dream_traffic.Switch_id.Set.t
(** All switches that see the task's filter. *)

val usage : t -> Dream_traffic.Switch_id.t -> int
(** TCAM entries this task occupies on a switch. *)

val active : t -> Dream_traffic.Switch_id.Set.t
(** Switches the task currently installs rules on — those with a non-zero
    allocation.  A baseline allocator (e.g. Equal under extreme overload)
    can grant zero entries on a switch; the task then goes blind there
    instead of violating switch capacity. *)

val rules_for : t -> Dream_traffic.Switch_id.t -> Dream_prefix.Prefix.t list
(** Prefixes to install on a switch (counters whose S contains it), in
    {!Dream_prefix.Prefix.compare} order — the order the controller's
    sorted-merge rule sync relies on. *)

val ingest :
  t -> (Dream_traffic.Switch_id.t * (Dream_prefix.Prefix.t * float) list) list -> unit
(** Deliver fetched per-switch counter readings (Algorithm 1 line 2).
    Every counter's volumes are replaced by its readings; readings for
    prefixes no longer monitored are dropped. *)

val bottlenecked :
  t -> allocations:int Dream_traffic.Switch_id.Map.t -> Dream_traffic.Switch_id.Set.t
(** Switches where the task has used its entire allocation — the switches
    whose missed events the local estimators should attribute (Section
    5.3). *)

module Cover : sig
  (** cover() of Section 5.2: greedy weighted set cover over the T_j sets
      of the structural trie nodes above the counters.  Internally every
      switch set is a bitmask over the task's sub-filters (bit [i] is
      sub-filter [i] of the topology); switch sets appear only here, at
      the boundary. *)

  type solution = { ancestors : Dream_prefix.Prefix.t list; cost : float }
  (** Disjoint ancestors to merge, and the total score of the counters the
      merges destroy. *)

  type candidates
  (** The monitor's candidate table.  There is one per monitor, reused
      across builds: a {!build} invalidates the candidates of every earlier
      one, and any merge or divide not followed by
      {!repair_after_merge} leaves them stale. *)

  val build : t -> candidates
  (** Every structural node with a non-empty T set, in the order the
      greedy breaks ties by, plus a per-switch lower bound on the cost of a
      candidate freeing that switch. *)

  val repair_after_merge : candidates -> Dream_prefix.Prefix.t -> unit
  (** Drop the candidates a merge at the given ancestor destroyed (those
      it covers).  The per-switch bounds stay: they only under-estimate. *)

  val min_cost_bound : candidates -> Dream_traffic.Switch_id.Set.t -> float
  (** Lower bound on the cost of any cover of the set: the largest
      per-switch bound over it ([infinity] for a switch no candidate
      frees). *)

  val solve_with :
    candidates ->
    exclude:Dream_prefix.Prefix.t option ->
    Dream_traffic.Switch_id.Set.t ->
    solution option
  (** Greedy cover of the set from these candidates, ignoring those that
      cover [exclude] (so a merge never destroys the counter about to be
      divided).  [None] if the set cannot be covered. *)

  val solve :
    t ->
    exclude:Dream_prefix.Prefix.t option ->
    Dream_traffic.Switch_id.Set.t ->
    solution option
  (** [solve t ~exclude f] is [solve_with (build t) ~exclude f]: a
      low-cost set of ancestors whose merging frees at least one entry on
      every switch in [f]. *)
end

val configure : t -> allocations:int Dream_traffic.Switch_id.Map.t -> unit
(** Algorithm 2: first merge until no switch exceeds its allocation, then
    repeatedly divide the highest-scoring counter, paying for each divide
    with a cover-merge when it would overflow a switch, while the score
    outweighs the merge cost.  Scores must have been set by the task-
    dependent scorer beforehand. *)

val is_partition : t -> bool
(** Whether the counters exactly partition the filter (test hook). *)

val emit : Dream_util.Codec.writer -> t -> unit
(** Append the active-switch set and every counter (in prefix order) to a
    checkpoint document.  The spec and topology are serialized by the
    owning task, not here. *)

val parse :
  Dream_util.Codec.reader ->
  spec:Task_spec.t ->
  topology:Dream_traffic.Topology.t ->
  t
(** Inverse of {!emit}; per-switch usage is recounted.
    @raise Dream_util.Codec.Parse_error on mismatch, an active switch
    outside the topology, or counters that do not partition the task's
    filter (see {!is_partition}). *)
