(** TCAM rule table of one switch.

    Rules are (owner task, prefix) pairs with hardware counters; capacity is
    the number of TCAM entries available to measurement (the dynamically
    allocable pool of Section 4).  The table never exceeds capacity:
    {!install} fails when full.  The controller syncs a task's rules with
    {!remove} and {!install}, diffing {!rules_of} against the desired
    prefixes in one sorted-merge walk ({!Dream_prefix.Prefix.fold_diff}).

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

val free : t -> int

val used_by : t -> owner:int -> int

val owners : t -> int list

val rules_of : t -> owner:int -> Dream_prefix.Prefix.t list
(** Installed prefixes of one task, strictly increasing in
    {!Dream_prefix.Prefix.compare} order. *)

val dump : t -> (int * Dream_prefix.Prefix.t list) list
(** Every installed rule, grouped by owner in owner order with prefixes in
    prefix order — the deterministic full-table view used by checkpoints
    and the recovery audit. *)

val install : t -> owner:int -> Dream_prefix.Prefix.t -> (unit, [ `Capacity | `Duplicate ]) result

val remove : t -> owner:int -> Dream_prefix.Prefix.t -> bool
(** [true] if the rule existed. *)

val remove_owner : t -> owner:int -> int
(** Delete all rules of a task (when it is dropped or ends); returns the
    number removed. *)

val read : t -> owner:int -> Dream_traffic.Aggregate.t -> (Dream_prefix.Prefix.t * float) list
(** Per-rule counters of a task against this epoch's traffic at this
    switch.  Counts one fetch per rule in the stats. *)

val wipe : t -> unit
(** Drop every rule of every owner without touching the churn stats: a
    switch crash losing its table, not controller-issued deletes (which
    the delay model would otherwise price). *)

val stats : t -> stats

val reset_stats : t -> unit
