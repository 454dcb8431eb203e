(** Switch identifiers.

    Switches are numbered densely from 0, so per-switch state is an array
    indexed by id, and a set of one task's switches is a {!Switch_mask}.
    The set and map instantiations below serve the traffic side's
    per-switch epochs and traces. *)

type t = int

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
