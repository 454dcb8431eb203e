(** Hierarchical-heavy-hitter task behaviour (Table 1, row HHH).

    Detection traverses the monitored prefix trie bottom-up and reports a
    prefix whose volume, after excluding detected descendant HHHs, still
    exceeds the threshold.  Accuracy is estimated precision: each detected
    HHH gets a value of 1 (confirmed true), 0 (cannot be true), or 0.5
    (ambiguous), following the case analysis of Section 5.3, and the
    estimate is the average of the values.

    The trie is the one the monitor's slots imply, walked on
    [(bits, length)] ints: a node's counters are one run of slots, split
    in two by {!Monitor.bisect}, and its children's results are summed in
    per-depth arrays.  Nothing is allocated per node or per
    detection. *)

type t
(** One task's detector: its monitor, report buffer, the walk's
    per-depth accumulators and the accuracy column, reused every epoch. *)

val create : Monitor.t -> Items.t -> t
(** @raise Invalid_argument on a buffer made without [~values:true]. *)

val detect : t -> unit
(** Overwrite the buffer with the detected HHHs, in key order: key,
    residual volume (after excluding descendant detected HHHs) as the
    magnitude, and estimated precision value in \{0, 0.5, 1\}. *)

val estimate : t -> allocations:int array -> Accuracy.t
(** Estimated precision of this epoch's {!detect}, under allocations
    indexed by sub-filter bit, 1 on a bit no detection sees: the
    detector's own column, refilled by the next call. *)
