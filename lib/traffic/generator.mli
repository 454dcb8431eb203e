(** Streaming synthetic trace generator for one task filter.

    Each call to {!next} produces the next epoch's traffic under the
    generator's filter, already split by ingress switch.  The generator is
    deterministic given its RNG seed, so two runs with equal seeds replay
    the exact same trace (the property the paper gets from replaying the
    same CAIDA chunk). *)

type t

val create :
  Dream_util.Rng.t -> topology:Topology.t -> profile:Profile.t -> t
(** @raise Invalid_argument if the profile fails {!Profile.validate}. *)

val next : t -> Epoch_data.t
(** Generate one epoch and advance.  Each source is routed to its switch
    and its volume drawn straight into that switch's reused staging
    columns (address and volume), in emission order: heavies, mediums,
    smalls.  Each switch's aggregate is then built from its column by
    {!Aggregate.of_columns}, so equal addresses sum in emission order, and
    [combined] is their {!Aggregate.union} in address order.  The
    aggregates are fresh on every call and may be kept; only the staging
    is reused. *)

val codec : t Dream_util.Codec.t
(** The full generator state — RNG words, epoch, topology, profile and
    every live source — so a restored generator replays the exact same
    suffix of the trace. *)
