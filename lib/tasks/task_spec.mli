(** Measurement task specification (Section 3).

    A user instantiates a task of one of three kinds over a flow filter,
    with a volume threshold and a target accuracy bound.  The packet header
    field is always a source/destination IP-like hierarchical field — the
    prefix trie under the filter — as in the paper.

    A spec carries no drop priority: the controller drops poor tasks in
    arrival order, the latest first (Section 4's default).  The CD
    volume mean's history weight is the one constant {!cd_history}. *)

type kind = Heavy_hitter | Hierarchical_heavy_hitter | Change_detection

val kind_to_string : kind -> string
val pp_kind : Format.formatter -> kind -> unit

val all_kinds : kind list

type t = {
  kind : kind;
  filter : Dream_prefix.Prefix.t;  (** flow filter, e.g. a /12 *)
  leaf_length : int;  (** drill-down floor; /32 = exact IPs *)
  threshold : float;  (** Mb per epoch defining a HH / HHH / change *)
  accuracy_bound : float;  (** target accuracy in \[0, 1\], e.g. 0.8 *)
}

val cd_history : float
(** 0.8, the EWMA history weight of every CD task's volume mean, in its
    monitor and in its ground truth. *)

val make :
  kind:kind ->
  filter:Dream_prefix.Prefix.t ->
  ?leaf_length:int ->
  threshold:float ->
  ?accuracy_bound:float ->
  unit ->
  t
(** Defaults: [leaf_length = 32], [accuracy_bound = 0.8] (the paper's
    defaults).
    @raise Invalid_argument on a threshold or bound out of range, or a
    [leaf_length] not exceeding the filter length. *)

val accuracy_metric : t -> [ `Recall | `Precision ]
(** Which accuracy measure drives allocation: recall for HH and CD,
    precision for HHH (Table 1). *)

val kind_codec : kind Dream_util.Codec.t
(** A kind as one [kind] line holding {!kind_to_string}. *)

val codec : t Dream_util.Codec.t
(** The spec in a checkpoint or journal.  Its [drop_priority] line must
    hold 0 and its [cd_history] line {!cd_history}; decoding raises
    [Invalid_argument] on a malformed filter or on values {!make}
    rejects. *)
