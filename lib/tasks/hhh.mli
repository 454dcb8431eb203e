(** Hierarchical-heavy-hitter task behaviour (Table 1, row HHH).

    Detection traverses the monitored prefix trie bottom-up and reports a
    prefix whose volume, after excluding detected descendant HHHs, still
    exceeds the threshold.  Accuracy is estimated precision: each detected
    HHH gets a value of 1 (confirmed true), 0 (cannot be true), or 0.5
    (ambiguous), following the case analysis of Section 5.3, and the
    estimate is the average of the values. *)

type detection = {
  prefix : Dream_prefix.Prefix.t;
  residual : float;  (** volume after excluding descendant detected HHHs *)
  value : float;  (** estimated precision value in \{0, 0.5, 1\} *)
}

val detect : Monitor.t -> detection list
(** Detected HHHs with their precision values, in prefix order. *)

val report : Monitor.t -> epoch:int -> detection list -> Report.t
(** The report of this epoch's {!detect}. *)

val estimate :
  Monitor.t -> allocations:int array -> detection list -> Accuracy.t
(** Estimated precision of this epoch's {!detect}, under allocations
    indexed by sub-filter bit. *)

val estimate_recall : Monitor.t -> float
(** Recall estimated like the HH estimator (Section 5.3: "for HHH tasks,
    recall can be calculated similar to HH tasks"): detected HHHs over
    detected plus a bound on the HHHs hiding inside coarse detections and
    unresolved over-threshold prefixes.  The paper observes this tracks
    precision; the test suite checks the correlation. *)
