(** Per-epoch traffic index with O(log n) prefix-volume queries.

    An aggregate freezes the flows a switch saw during one epoch into a
    sorted address array with cumulative volume sums, so that reading a TCAM
    counter for any prefix is the difference of two sums at the two ends of
    its address range.  This is the simulator's stand-in for the switch
    data plane counting packets against installed rules.

    The payload lives in unboxed off-heap [Bigarray]s: building one
    allocates a constant handful of words on the OCaml heap however many
    flows the epoch carries.  The original boxed-array implementation is
    kept in the test tree as a differential oracle; the qcheck suite holds
    every query here to bitwise equality with it. *)

type t

val of_columns : int array -> float array -> int -> t
(** [of_columns addrs volumes n] indexes the first [n] (address, volume)
    pairs of two parallel columns, in any order.  Equal addresses are
    summed left to right in column order.  This is the one aggregate
    builder: the generator, {!of_flows} and {!union} all go through it.

    The columns are the build's scratch: an unsorted build sorts them in
    place, and on return their first {!num_addresses} entries hold the
    aggregate's addresses, ascending, and its summed volumes.  Nothing but
    the aggregate itself is allocated.  {!sorted_fast_path} is [true] when
    no two pairs shared an address.
    @raise Invalid_argument if the pairs are not in strictly ascending
    order and an address is outside \[0, 2{^32}) or [n >= 2{^30}]. *)

val of_flows : Flow.t list -> t
(** {!of_columns} over a list; duplicate addresses are combined.  Here
    {!sorted_fast_path} keeps its list meaning: [true] only when the flows
    came in strictly ascending address order. *)

val empty : t

type columns
(** Scratch columns for {!union}, grown on demand and reusable across
    calls. *)

val columns : unit -> columns

val union : columns -> t array -> t
(** [union scratch ts] is one aggregate over the entries of all of [ts],
    in array order: an address several of them hold sums in that order,
    the left fold of a pairwise merge.  One non-empty aggregate is its own union, and none
    gives {!empty}.  Otherwise the entries are gathered into the scratch
    columns and built by {!of_columns}, so aggregates over disjoint
    addresses in address order skip the sort. *)

val sorted_fast_path : t -> bool
(** Whether the build combined nothing: see {!of_columns} and {!of_flows}.
    {!empty} reports [true].  The controller counts this over the
    per-switch aggregates of every epoch it reads; it never influences
    simulation state. *)

val volume : t -> Dream_prefix.Prefix.t -> float
(** Total volume of addresses covered by the prefix. *)

val total : t -> float
(** Volume of all flows. *)

val num_addresses : t -> int

val flows_in : t -> Dream_prefix.Prefix.t -> Flow.t list
(** Flows under a prefix, in address order. *)

val fold : t -> init:'a -> f:('a -> Flow.t -> 'a) -> 'a

val read_keys : t -> keys:int array -> n:int -> float array -> unit
(** [read_keys t ~keys ~n vols] writes the {!volume} of the prefix of
    each key in [keys.(0 .. n-1)] ({!Dream_prefix.Prefix.key}) into the
    same index of [vols], bit for bit what {!volume} returns.  Each key's
    address range is found by galloping forward from the previous key's:
    in a batch in key order whose prefixes do not overlap (a TCAM rule
    column, which partitions its task's filter) a range starts where the
    last one ended and is found in a probe or two.  Nested keys gallop
    from the enclosing range's start, and a key before the previous one
    starts over from the first address.  Any order gives the exact
    volumes, and nothing is allocated. *)

(** {2 Address ranges}

    The addresses are indexed [0 .. num_addresses - 1] in ascending order,
    so the addresses under a prefix are one index range [\[lo, hi)].  A
    walk down the prefix trie splits a range into its two children's with
    one search instead of two fresh ones per child. *)

val split : t -> int -> lo:int -> hi:int -> int
(** [split t addr ~lo ~hi] is the first index in [\[lo, hi)] holding an
    address [>= addr], or [hi]: with [addr] the first address of a
    prefix's right child, the index range of the prefix splits into its
    children's at the result. *)

val span_volume : t -> lo:int -> hi:int -> float array -> int -> unit
(** [span_volume t ~lo ~hi cells c] writes the volume of the addresses at
    indices [\[lo, hi)] into [cells.(c)]: for a prefix's range, the float
    {!volume} returns for it.  Nothing is allocated. *)

val count_leaves : t -> int -> leaf_length:int -> int
(** The number of length-[leaf_length] leaves (at least the key's
    length) holding an address under the prefix of a key. *)

val leaf_sums :
  t -> int -> leaf_length:int -> keys:int array -> vols:float array -> int
(** [leaf_sums t key ~leaf_length ~keys ~vols] sums the volumes under the
    prefix of [key] per length-[leaf_length] leaf (at least the key's
    length): the leaves with an address here, in key order, go to
    [keys.(i)] and their sums to [vols.(i)] from [i = 0], and the count
    is returned.  Each sum adds the leaf's addresses from 0.0 in
    ascending order.  The arrays need room for {!count_leaves}
    entries. *)
