(** A flow record: the traffic volume attributed to one source address in
    one measurement epoch.  Volumes are in megabits per epoch, matching the
    paper's 8 Mb default heavy-hitter threshold. *)

type t = { addr : Dream_prefix.Prefix.address; volume : float }

val make : addr:Dream_prefix.Prefix.address -> volume:float -> t

val sorted_distinct : t list -> bool
(** True when addresses are strictly ascending: an aggregate built from
    the list combines nothing ({!Aggregate.of_flows}). *)
