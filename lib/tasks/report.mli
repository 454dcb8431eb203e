(** Measurement reports delivered to the task's user each epoch.

    An item's [magnitude] is kind-specific: the volume of a heavy hitter,
    the residual volume of a hierarchical heavy hitter (after excluding
    descendant HHHs), or the absolute deviation from the historical mean
    for change detection.

    The estimators fill an {!Items} buffer each epoch; a [t] is built from
    it on demand ({!of_items}), for readers off the per-epoch path. *)

type item = { prefix : Dream_prefix.Prefix.t; magnitude : float }

type t = { kind : Task_spec.kind; epoch : int; items : item list }

val of_items : kind:Task_spec.kind -> epoch:int -> Items.t -> t
(** The report of a buffer's items, in its (key) order. *)

val size : t -> int

val pp : Format.formatter -> t -> unit
