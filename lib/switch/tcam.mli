(** TCAM rule table of one switch.

    Rules are (owner task, prefix) pairs with hardware counters; capacity is
    the number of TCAM entries available to measurement (the dynamically
    allocable pool of Section 4).  The table never exceeds capacity:
    {!install} fails when full.

    Each owner's rules are one sorted column of packed prefix keys
    ({!Dream_prefix.Prefix.key}), the shape a programmable switch's
    register arrays have: an edit at an index ({!insert_at}, {!remove_at})
    is one shift of the column, {!used_by} is a count, and {!read} writes
    a column's counters in key order into buffers the caller owns.  The
    controller looks an owner's column up once and syncs it by index,
    walking it against the monitor's key column in one two-cursor merge
    whose cursor is the index of each edit; the keyed {!install} and
    {!remove} bisect for that index first.

    Counter values come from {!read}: the simulator stands in for the data
    plane by evaluating each rule's prefix against the epoch's traffic
    aggregate.  Install/remove churn is tracked so the control-loop delay
    model (Fig 17) can price incremental rule updates. *)

type t

type stats = {
  installs : int;  (** rules written since last [reset_stats] *)
  removals : int;  (** rules deleted since last [reset_stats] *)
  fetches : int;  (** counters fetched since last [reset_stats] *)
}

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val used : t -> int
(** Total installed rules across all owners. *)

val used_by : t -> owner:int -> int
(** The owner's rule count, without listing the rules. *)

(** {2 One owner's key column} *)

type rules
(** The live column of one owner's rule keys, strictly increasing.  It
    follows every edit of that owner's rules, until a {!remove_owner} or
    {!wipe} drops it. *)

val rules : t -> owner:int -> rules
(** The owner's column.  An owner with none gets an empty one: the column
    of the owner {!remove_owner} removed last, with the room it grew, or a
    fresh one when there is none. *)

val find : t -> owner:int -> rules
(** The owner's column, if it has one.  Unlike {!rules} it adds none: an
    owner without one gets the table's empty column of no owner, which
    can be read but not edited. *)

val count : rules -> int

val key : rules -> int -> int
(** [key rules i] is the [i]-th smallest key, [0 <= i < count rules]. *)

val fold_owners : (int -> rules -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every owner holding a column (perhaps an empty one), in no
    set order.  [f] may {!install} and {!remove} rules of the owners it
    is given, but must not add or drop an owner's column. *)

(** {2 Updates and reads} *)

val insert_at : t -> rules -> int -> int -> bool
(** [insert_at t rules i key] installs the rule of [key] at index [i] of
    an owner's column of [t] and returns [true], or returns [false] and
    changes nothing when the table is full.  [key] must belong at [i]:
    above the key at [i - 1] and below the one now at [i].
    @raise Invalid_argument if it does not, or [rules] is the column of
    no owner ({!find}). *)

val remove_at : t -> rules -> int -> unit
(** [remove_at t rules i] removes the rule at index [i] of an owner's
    column of [t]; the keys above it move down one.
    @raise Invalid_argument if [i] is not below [count rules]. *)

val install : t -> owner:int -> int -> (unit, [ `Capacity | `Duplicate ]) result
(** Install the rule of a prefix key: {!insert_at} at the index a bisect
    of the owner's column finds. *)

val remove : t -> owner:int -> int -> bool
(** Remove the rule of a prefix key, {!remove_at} the index a bisect
    finds; [true] if it existed. *)

val remove_owner : t -> owner:int -> int
(** Delete all rules of a task (when it is dropped or ends); returns the
    number removed.  The owner's column is kept for the next owner
    {!rules} makes one for. *)

val read : t -> rules -> Dream_traffic.Aggregate.t -> keys:int array -> vols:float array -> int
(** Per-rule counters of one owner's column of [t] against this epoch's
    traffic at this switch: its keys in key order into [keys.(0 .. n-1)],
    their volumes into [vols], and [n], its {!count}, returned.  Both
    buffers must hold [count] entries.  Counts one fetch per rule in the
    stats. *)

val wipe : t -> unit
(** Drop every rule of every owner without touching the churn stats: a
    switch crash losing its table, not controller-issued deletes (which
    the delay model would otherwise price). *)

val stats : t -> stats

val installs : t -> int
(** [(stats t).installs], without building the record. *)

val removals : t -> int
(** [(stats t).removals]. *)

val fetches : t -> int
(** [(stats t).fetches]. *)

val reset_stats : t -> unit

val dump : t -> (int * Dream_prefix.Prefix.t list) list
(** Every installed rule, grouped by owner in owner order with prefixes in
    prefix order: the deterministic full-table view of checkpoints and the
    orphan-rules invariant, off the per-epoch path. *)
