(** Monitor configuration of one task: the set of prefixes it currently
    counts, and the task-independent divide-and-merge algorithm
    (Algorithm 2) that reshapes this set to fit per-switch allocations.

    Invariant: the monitored prefixes always partition the task's flow
    filter — divide replaces a prefix by both children, merge replaces all
    descendants of an ancestor by that ancestor (the paper's footnote 6:
    merging to the common ancestor avoids overlapping counters).  A counter
    occupies one TCAM entry on every switch in its S set (the switches that
    can see its traffic).

    The counters are one table of slots in prefix order, stored as unboxed
    columns (DESIGN §3): a slot's prefix, S set, flags, total, score, CD
    mean and per-switch volumes.  Since the counters partition the filter,
    the counters under any prefix are one contiguous run of slots, so
    lookups, merges, a switch's rules and trie walks are bisects over the
    table, and a merge or divide is one shift of each column.  A slot index stays
    valid until the next {!configure}, which moves slots.

    Switch sets are {!Dream_traffic.Switch_mask} bitmasks over the task's
    sub-filters, and per-switch arguments are sub-filter bits; only the
    data-plane facing functions take switch ids. *)

type t

val create : spec:Task_spec.t -> topology:Dream_traffic.Topology.t -> t
(** Initial configuration: a single counter on the task's flow filter
    (Section 5.1: each new task starts with one counter). *)

val spec : t -> Task_spec.t

val topology : t -> Dream_traffic.Topology.t

val num_counters : t -> int
(** The counters are slots [0 .. num_counters - 1], in prefix order. *)

(** {2 Slots} *)

val find : t -> Dream_prefix.Prefix.t -> int option
(** The slot of the counter on exactly this prefix: one bisect. *)

val prefix : t -> int -> Dream_prefix.Prefix.t

val wildcards : t -> int -> int
(** Free bits down to the task's drill-down floor ([leaf_length]). *)

val is_exact : t -> int -> bool
(** Whether the counter reaches the task's drill-down floor. *)

val switch_count : t -> int -> int
(** The size of the counter's S set: the switches that can see traffic
    for its prefix. *)

val total : t -> int -> float
(** The sum of the counter's fetched volumes, in ascending switch-id
    order. *)

val volume_on : t -> int -> int -> float
(** [volume_on t slot bit]: last fetched volume on the switch of a
    sub-filter bit; 0 when it has none. *)

val volumes : t -> int -> (Dream_traffic.Switch_id.t * float) list
(** Every fetched volume, in ascending switch-id order. *)

val score : t -> int -> float
(** Task-dependent "interestingness", set by the scorer. *)

val set_score : t -> int -> float -> unit

val fresh : t -> int -> bool
(** Installed by the last reconfiguration and not measured since. *)

val mean : t -> int -> float option
(** The CD volume mean, [None] before any history (unused by HH/HHH). *)

val cd_deviation : t -> int -> float
(** [|total - mean|]; 0 before any history. *)

(** {2 Columns}

    The float columns themselves, for the estimators and the scorer that
    visit every slot once an epoch: indexing one reads a float without
    boxing it, where {!total} or {!volume_on} returns a boxed one across
    the module boundary.  Each is the monitor's own array, valid until the
    next {!configure} or reading; do not mutate, except {!scores}. *)

val totals : t -> float array
(** {!total} of slot [i] at index [i]. *)

val means : t -> float array
(** The CD mean of slot [i] at index [i], where {!seeded}. *)

val scores : t -> float array
(** {!score} of slot [i] at index [i]; writing one is {!set_score}. *)

val seeded : t -> int -> bool
(** Whether the slot's CD mean has history ({!mean} is [Some]). *)

val vols : t -> float array
(** {!volume_on} of slot [i] on sub-filter bit [b] at index
    [i * k + b] ([k] the topology's switches per task), where
    {!has_volume}. *)

val has_volume : t -> int -> int -> bool
(** [has_volume t i b]: slot [i] has a volume on the switch of bit [b]
    this epoch. *)

val update_means : t -> unit
(** Fold every counter's total into its CD mean, with {!Dream_util.Ewma}'s
    arithmetic and the spec's [cd_history] (call after reporting). *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] is [f 0 (f 1 (... (f (n-1) init)))] over the slots,
    like [List.fold_right]: consing builds a list in prefix order. *)

val fold_seeing : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** {!fold} over the counters whose S set holds the switch of a sub-filter
    bit: the one run of slots intersecting that sub-filter. *)

val bisect : t -> Dream_prefix.Prefix.address -> int -> int -> int
(** [bisect t addr lo hi]: the first slot in [lo, hi) whose counter
    starts at or after [addr], or [hi].  The counters under a trie node
    are one run of slots, and the two children's runs are its two sides
    at the right child's first address: how a walk over the trie the
    slots imply splits a node without building it. *)

val switches : t -> Dream_traffic.Switch_mask.t
(** All switches that see the task's filter. *)

val usage : t -> int -> int
(** TCAM entries this task occupies on the switch of a sub-filter bit. *)

val active : t -> Dream_traffic.Switch_mask.t
(** Switches the task currently installs rules on — those with a non-zero
    allocation.  A baseline allocator (e.g. Equal under extreme overload)
    can grant zero entries on a switch; the task then goes blind there
    instead of violating switch capacity. *)

(** {2 Facing the data plane}

    A switch's rules are the counters whose S set holds it: one run of
    slots, whose {!key}s are the rules' packed prefix keys
    ({!Dream_prefix.Prefix.key}) in key order — the order a TCAM column
    keeps, so rule sync is one two-cursor merge of the two.  Readings come
    back the same way, one switch's key and volume columns at a time,
    between {!clear_readings} and {!seal_readings}. *)

val rules_start : t -> Dream_traffic.Switch_id.t -> int
(** First slot of the switch's rules (none on a switch outside
    {!active}). *)

val rules_stop : t -> Dream_traffic.Switch_id.t -> int -> int
(** [rules_stop t sw (rules_start t sw)]: one past the last slot of the
    switch's rules; the two are equal when it has none. *)

val key : t -> int -> int
(** The slot's prefix as a packed key. *)

val clear_readings : t -> unit
(** Start delivering an epoch's readings (Algorithm 1 line 2): every
    counter forgets its volumes. *)

val ingest :
  t -> Dream_traffic.Switch_id.t -> keys:int array -> vols:float array -> int -> unit
(** [ingest t sw ~keys ~vols n] delivers one switch's readings: volume
    [vols.(i)] for the prefix key [keys.(i)], [0 <= i < n].  Readings for
    prefixes no longer monitored, and from switches the task never sees,
    are dropped.  One sorted merge: readings are expected in key order (a
    TCAM's order); any order is accepted. *)

val seal_readings : t -> unit
(** Finish delivering: every counter's total is its new volumes' sum, and
    no counter is fresh any more. *)

val bottlenecked : t -> allocations:int array -> Dream_traffic.Switch_mask.t
(** Switches where the task has used its entire allocation — the switches
    whose missed events the local estimators should attribute (Section
    5.3).  [allocations] is indexed by sub-filter bit. *)

module Cover : sig
  (** cover() of Section 5.2: greedy weighted set cover over the T_j sets
      of the structural trie nodes above the counters.  Internally every
      switch set is a bitmask over the task's sub-filters (bit [i] is
      sub-filter [i] of the topology). *)

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

  val min_cost_bound : candidates -> Dream_traffic.Switch_mask.t -> float
  (** Lower bound on the cost of any cover of the set: the largest
      per-switch bound over it ([infinity] for a switch no candidate
      frees). *)

  val solve :
    candidates -> exclude:Dream_prefix.Prefix.t option -> Dream_traffic.Switch_mask.t -> bool
  (** Greedy cover of the set from these candidates, ignoring those that
      cover [exclude] (so a merge never destroys the counter about to be
      divided): a low-cost set of disjoint ancestors whose merging frees
      at least one entry on every switch in the set, left in {!picked}
      and {!cost} until the next solve.  [false] if the set cannot be
      covered. *)

  val picks : candidates -> int
  (** The number of ancestors the last {!solve} picked. *)

  val picked : candidates -> int -> Dream_prefix.Prefix.t
  (** [picked c i]: the ancestor the last {!solve} picked [i]-th, from 0. *)

  val cost : candidates -> float
  (** The total score of the counters the last {!solve}'s merges destroy:
      the picks' costs summed in pick order. *)
end

val cover_scans : t -> int
(** The candidate slots cover() has visited since the monitor was created
    or parsed: the slots its solves, picks, drops and repairs read.  A
    count of the work itself, exact for a seeded run. *)

val configure : t -> allocations:int array -> unit
(** Algorithm 2 under per-sub-filter-bit [allocations] (a switch outside
    {!switches} must be granted 0): first merge until no switch exceeds
    its allocation, then
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
