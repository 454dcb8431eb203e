(** The counter table of one task: the set of prefixes it currently
    counts, with their readings, scores and CD means.  {!Divide_merge}
    reshapes it to fit per-switch allocations, through the two edits
    {!merge} and {!divide}; this module is the only one that writes the
    table.

    Invariant: the monitored prefixes always partition the task's flow
    filter — divide replaces a prefix by both children, merge replaces all
    descendants of an ancestor by that ancestor (the paper's footnote 6:
    merging to the common ancestor avoids overlapping counters).  A counter
    occupies one TCAM entry on every switch in its S set (the switches that
    can see its traffic).

    The counters are one table in prefix order, stored as unboxed columns
    (DESIGN §3).  Since the counters partition the filter, the counters
    under any prefix are one contiguous run of the table, so lookups,
    merges, a switch's rules and trie walks are bisects over it.

    The columns' spare slots are one gap, which {!merge} and {!divide}
    move to where they edit: each moves only the counters between its
    edit and the last one, one move of each column.  Only a configure
    ({!Divide_merge.configure}) opens the gap, and it closes it
    ({!settle}) before its cover build, before its divide phase and
    before it returns.  Everywhere else the table is settled: the gap
    sits at [n] and the counters are slots [0, n), which is all every
    function here but {!merge}, {!divide}, {!slot_of_key} and {!settle}
    reads.  While the gap is open the divide loop passes slots, not
    places in the table: {!slot_of_key} finds a counter on either side of
    the gap and {!divide} returns its left child's slot.  A slot stays
    valid until the next merge, divide or settle, which move counters.

    Switch sets are {!Dream_traffic.Switch_mask} bitmasks over the task's
    sub-filters, and per-switch arguments are sub-filter bits; only the
    data-plane facing functions take switch ids. *)

(** The table, readable in place by the modules that visit every slot
    in a configure or an epoch ({!Divide_merge}, the scorer and the
    estimators): lib builds with [-opaque], so a call into this module per
    slot is never inlined, and a float it returns is boxed.  They read it
    settled, except the divide loop, which reads the slots {!slot_of_key}
    and {!divide} hand it.  Only this module writes a field, and nothing
    else writes a column except the scorer, into [scores].  A column is replaced when it grows, and goes
    back to the task's {!Storage} when the task retires ({!release}).

    Int columns are [Bytes], 8 bytes a slot ([Bytes.get_int64_ne] at
    [i lsl 3]): [keys], each a {!Dream_prefix.Prefix.key}, so they order
    by first address, then length; [masks], the S sets
    ([Topology.prefix_mask]); [flags], fresh ([1]), CD mean seeded ([2]) and one volume-presence bit
    per sub-filter ([4 lsl b]); [stamps], unique per counter created, which
    tells a live counter from one merged away and recreated on the same
    prefix.  Float columns: [totals] (the sum of the counter's fetched
    volumes, in ascending switch-id order), [scores] (task-dependent
    "interestingness", set by the scorer) and [means] (the CD volume
    mean, where {!seeded}) of slot [i] at index [i], and in [vols] its
    volume on sub-filter [b] at [i * k + b], where {!has_volume}. *)
type t = private {
  spec : Task_spec.t;
  topology : Dream_traffic.Topology.t;
  k : int;  (** sub-filters *)
  by_switch : int array;  (** [Topology.switch_order] *)
  mutable gap : int;
      (** the counters in slots [0, gap) are the table's first [gap], and
          the rest sit past the [capacity - n] spare slots from [gap] on;
          [gap = n] when settled *)
  mutable n : int;  (** counters *)
  mutable keys : Bytes.t;
  mutable masks : Bytes.t;
  mutable flags : Bytes.t;
  mutable stamps : Bytes.t;
  mutable totals : float array;
  mutable scores : float array;
  mutable means : float array;
  mutable vols : float array;
  mutable next_stamp : int;
  switches : Dream_traffic.Switch_mask.t;  (** every switch seeing the filter *)
  usage : int array;  (** entries per sub-filter, kept incrementally *)
  mutable active_mask : Dream_traffic.Switch_mask.t;
      (** the switches the task installs rules on, those with a non-zero
          allocation: a baseline allocator (e.g. Equal under extreme
          overload) can grant zero entries on a switch, and the task then
          goes blind there instead of violating switch capacity *)
}

val create : spec:Task_spec.t -> topology:Dream_traffic.Topology.t -> storage:Storage.t -> t
(** Initial configuration: a single counter on the task's flow filter
    (Section 5.1: each new task starts with one counter).

    The columns are [storage]'s, with the room an earlier owner grew
    them to ({!Storage.create}'s have none, and grow to 16 slots here).
    The new table resets its slot count and stamps and writes every slot
    before reading it, so what the columns held is never seen.
    @raise Invalid_argument if [storage] was grown for another
    sub-filter count. *)

val release : t -> Storage.t -> unit
(** [release t storage] hands the columns back to [storage], grown or
    not, for the next task built on it.  [t] must not be used again. *)

val spec : t -> Task_spec.t

val topology : t -> Dream_traffic.Topology.t

val num_counters : t -> int
(** The counters are slots [0 .. num_counters - 1], in prefix order (the
    table settled). *)

val capacity : t -> int
(** Slots allocated in every column: the counters and the gap. *)

val settle : t -> unit
(** Close the gap: move it to the table's end, so the counters are slots
    [0, n) again. *)

(** {2 Slots} *)

val wildcards : t -> int -> int
(** Free bits down to the task's drill-down floor ([leaf_length]). *)

val is_exact : t -> int -> bool
(** Whether the counter reaches the task's drill-down floor. *)

val switch_count : t -> int -> int
(** The size of the counter's S set: the switches that can see traffic
    for its prefix. *)

val fresh : t -> int -> bool
(** Installed by the last reconfiguration and not measured since. *)

val seeded : t -> int -> bool
(** Whether the slot's CD mean has history. *)

val has_volume : t -> int -> int -> bool
(** [has_volume t i b]: slot [i] has a volume on the switch of bit [b]
    this epoch. *)

val update_means : t -> unit
(** Fold every counter's total into its CD mean, an EWMA of history
    weight {!Task_spec.cd_history} whose first sample seeds it (call after
    reporting). *)

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

(** {2 Facing the data plane}

    A switch's rules are the counters whose S set holds it: one run of
    slots, whose {!key}s are the rules' packed prefix keys
    ({!Dream_prefix.Prefix.key}) in key order — the order a TCAM column
    keeps, so rule sync is one two-cursor merge of the two.  Readings come
    back the same way, one switch's key and volume columns at a time,
    between {!clear_readings} and {!seal_readings}. *)

val rules_start : t -> Dream_traffic.Switch_id.t -> int
(** First slot of the switch's rules (none on a switch outside
    [active_mask]). *)

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

val slot_of_key : t -> int -> int
(** The slot holding exactly the counter of a packed prefix key, or -1,
    the gap open or not: one bisect of the run of slots on one side of
    the gap. *)

val merge : t -> abits:int -> alen:int -> unit
(** Replace every counter under the prefix ([abits], [alen]) by one
    counter on it, unless a counter on or above it already covers it.
    Its score, CD mean and per-switch volumes are its victims' sums,
    added in prefix order.  Leaves the gap open after the merged
    counter. *)

val divide :
  t -> int -> left:Dream_traffic.Switch_mask.t -> right:Dream_traffic.Switch_mask.t -> int
(** [divide t i ~left ~right] replaces the counter in slot [i] by its two
    children and returns the left child's slot; the right child's is the
    next.  [left] and [right] are the children's S sets,
    [Topology.bits_mask] of each.  Each child inherits half the parent's
    score and, when it has one, half its CD mean.  Leaves the gap open
    after the children.  A counter at full length is left as it is, and
    its slot returned. *)

val set_active : t -> Dream_traffic.Switch_mask.t -> unit
(** Install rules on these sub-filters' switches only ([active_mask]),
    recounting {!usage} when the set changes. *)

val is_partition : t -> bool
(** Whether the counters exactly partition the filter (test hook). *)

val codec :
  spec:Task_spec.t -> topology:Dream_traffic.Topology.t -> storage:Storage.t -> t Dream_util.Codec.t
(** The active-switch set and every counter (in prefix order), as a
    checkpoint holds them; the spec and topology are the owning task's.
    Decoding builds on [storage]'s columns as {!create} takes them and
    recounts per-switch usage; it refuses an active switch or a volume
    outside the topology, and counters that do not partition the task's
    filter (see {!is_partition}). *)
