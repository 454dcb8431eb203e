(** The traffic one task filter produced in one measurement epoch, split by
    ingress switch.  [combined] is the network-wide view used for ground
    truth; switches only ever see their own entry of [per_switch]. *)

type t = {
  epoch : int;
  per_switch : Aggregate.t Switch_id.Map.t;
  combined : Aggregate.t;
}

val of_flows : epoch:int -> (Switch_id.t * Flow.t list) list -> t
(** Build both views from per-switch flow lists through
    {!Aggregate.of_flows}.  A switch's flows are those of all its groups
    concatenated in listed order and then reversed, and duplicate
    addresses sum in that reversed order.  In [combined], an address
    several switches saw sums over them in switch-id order. *)

val switch_view : t -> Switch_id.t -> Aggregate.t
(** A switch's aggregate; empty if the switch saw nothing. *)

val active_switches : t -> Switch_id.Set.t
