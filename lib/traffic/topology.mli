(** Prefix-to-ingress-switch mapping for one task filter.

    The paper's evaluation controls spatial multiplexing by assigning
    sub-prefixes of each task's flow filter to ingress switches, so that a
    task sees traffic from [switches_per_task] of the network's switches.
    The controller is assumed to know this mapping (Section 5.2: "we know
    the ingress switches for each prefix"); DREAM uses it to compute the
    switch sets S_j needed by divide-and-merge. *)

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

val filter : t -> Dream_prefix.Prefix.t

val num_switches : t -> int

val switches_per_task : t -> int

val subfilters : t -> (Dream_prefix.Prefix.t * Switch_id.t) list
(** The sub-prefix → switch assignment, in address order. *)

val subfilter_of_bit : t -> int -> Dream_prefix.Prefix.t
(** Sub-filter [i] in address order, i.e. the one mask bit [i] stands for. *)

val switch_of_bit : t -> int -> Switch_id.t
(** The switch of sub-filter [i], i.e. of mask bit [i]. *)

val prefix_mask : t -> Dream_prefix.Prefix.t -> int
(** {!switch_set} as a bitmask: bit [i] is set when sub-filter [i]
    intersects the prefix.  Sub-filters map to distinct switches, so the
    mask and the set determine each other through {!switch_of_bit}.
    Allocation-free. *)

val bits_mask : t -> bits:int -> length:int -> int
(** {!prefix_mask} of the prefix with the given bits and length, for
    callers walking the trie without building prefixes. *)

val switch_set : t -> Dream_prefix.Prefix.t -> Switch_id.Set.t
(** Switches that can see traffic for the given prefix: those assigned a
    sub-filter intersecting it.  Empty for prefixes outside the filter. *)

val switch_of_address : t -> Dream_prefix.Prefix.address -> Switch_id.t option
(** Ingress switch of an address, or [None] outside the filter. *)

val emit : Dream_util.Codec.writer -> t -> unit
(** Append the topology (including the realised sub-filter → switch
    assignment) to a checkpoint document. *)

val parse : Dream_util.Codec.reader -> t
(** Inverse of {!emit}.  @raise Dream_util.Codec.Parse_error on mismatch,
    or unless there are [switches_per_task] sub-filters, at most
    {!max_switches_per_task}. *)
