(** Prefix-to-ingress-switch mapping for one task filter.

    The paper's evaluation controls spatial multiplexing by assigning
    sub-prefixes of each task's flow filter to ingress switches, so that a
    task sees traffic from [switches_per_task] of the network's switches.
    The controller is assumed to know this mapping (Section 5.2: "we know
    the ingress switches for each prefix"); DREAM uses it to compute the
    switch sets S_j needed by divide-and-merge.

    A set of a task's switches is a {!Switch_mask.t}: bit [i] stands for
    sub-filter [i] and so for {!switch_of_bit}[ i]. *)

type t

val create :
  Dream_util.Rng.t ->
  filter:Dream_prefix.Prefix.t ->
  num_switches:int ->
  switches_per_task:int ->
  t
(** Split [filter] into [switches_per_task] equal sub-prefixes and map each
    to a distinct switch drawn from \[0, num_switches).
    @raise Invalid_argument unless [switches_per_task] is a power of two,
    at most [num_switches], at most {!max_switches_per_task}, and [filter]
    is long enough to split. *)

val max_switches_per_task : int
(** 32: sub-filter sets are [int] bitmasks (see {!prefix_mask}), one bit
    per sub-filter. *)

val switches_per_task : t -> int

val subfilters : t -> (Dream_prefix.Prefix.t * Switch_id.t) list
(** The sub-prefix → switch assignment, in address order. *)

val subfilter_of_bit : t -> int -> Dream_prefix.Prefix.t
(** Sub-filter [i] in address order, i.e. the one mask bit [i] stands for. *)

val switch_of_bit : t -> int -> Switch_id.t
(** The switch of sub-filter [i], i.e. of mask bit [i]. *)

val bit_of_switch : t -> Switch_id.t -> int
(** Inverse of {!switch_of_bit}: the bit of the sub-filter a switch holds,
    or [-1] for a switch the task never sees. *)

val parse_bit : t -> what:string -> Switch_id.t -> int
(** {!bit_of_switch} of a switch a checkpoint names under [what], for a
    decode: a switch the task never sees is refused
    ({!Dream_util.Codec.refuse}). *)

val switch_order : t -> int array
(** The sub-filter bits in ascending switch-id order, computed once: the
    order every codec writes per-switch values in.  Do not mutate. *)

val prefix_mask : t -> Dream_prefix.Prefix.t -> int
(** Switches that can see traffic for the given prefix, as a mask: bit
    [i] is set when sub-filter [i] intersects the prefix.  Empty ([0]) for
    prefixes outside the filter.  Allocation-free O(1) shift arithmetic,
    which relies on the equal split {!create} makes and decoding enforces. *)

val bits_mask : t -> bits:int -> length:int -> int
(** {!prefix_mask} of the prefix with the given bits and length, for
    callers walking the trie without building prefixes.  [bits] must be
    normalised, zero below [length], as [Prefix.make] and [Prefix.key_bits]
    give them. *)

val bit_of_address : t -> Dream_prefix.Prefix.address -> int
(** The sub-filter bit of an address, read off at a shift, or [-1]
    outside the filter.  Allocation-free. *)

val switch_of_address : t -> Dream_prefix.Prefix.address -> Switch_id.t option
(** Ingress switch of an address ({!switch_of_bit} of {!bit_of_address}),
    or [None] outside the filter. *)

val codec : t Dream_util.Codec.t
(** The topology, including the realised sub-filter → switch assignment,
    in a checkpoint or journal.  Decoding refuses a layout {!create}
    cannot make: unless there are
    [switches_per_task] sub-filters, a power of two and at most
    {!max_switches_per_task}, sub-filter [i] is the filter's [i]-th equal
    split, and each sits on a distinct switch.  Whether the network has
    those switches is the restoring controller's check. *)
