(** A set of one task's switches: an [int] bitmask over the sub-filters of
    its {!Topology}, bit [i] standing for the switch
    {!Topology.switch_of_bit}[ i].  A task's per-switch values live in
    arrays indexed by the same bit.  Walks run in ascending switch-id
    order, the order checkpoints and journals name switches in. *)

type t = int

val empty : t

val full : Topology.t -> t
(** Every sub-filter of the topology. *)

val mem_bit : int -> t -> bool

val cardinal : t -> int

val fold : Topology.t -> (Switch_id.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold topology f mask init] calls [f switch bit] on every member, in
    ascending switch-id order. *)

val iter : Topology.t -> (Switch_id.t -> int -> unit) -> t -> unit
(** {!fold} for effects. *)

val exists : Topology.t -> (Switch_id.t -> bool) -> t -> bool
