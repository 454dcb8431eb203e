(** Divide-and-merge (the paper's Algorithm 2) over a task's {!Monitor}:
    reshape its counters to fit per-switch allocations, paying for a
    divide that would overflow a switch by merging other counters, chosen
    by cover() (Section 5.2).

    A workspace holds cover()'s candidate table and the divide heap: the
    scratch of one configure, which no task keeps.  One per controller
    (or per program that drives tasks itself); every task's configure
    runs on it in turn, and it grows to the largest task's needs.
    Nothing an earlier configure left, on this monitor or another,
    changes what a configure does, so one workspace shared by many tasks
    gives the same counters, bit for bit, as a workspace of each task's
    own.  It edits the counters only through {!Monitor.merge} and
    {!Monitor.divide}.  Switch sets are {!Dream_traffic.Switch_mask}
    bitmasks over a monitor's sub-filters. *)

type t

val create : unit -> t
(** A workspace with no room: its tables and heap grow on first use. *)

val configure : t -> Monitor.t -> allocations:int array -> unit
(** [configure t monitor ~allocations]: Algorithm 2 on [monitor] under
    per-sub-filter-bit [allocations] (a switch outside
    {!Monitor.switches} must be granted 0): first merge until no switch
    exceeds its allocation, then repeatedly divide the highest-scoring
    counter, paying for each divide with a cover-merge when it would
    overflow a switch, while the score outweighs the merge cost.  Scores
    must have been set by the task-dependent scorer beforehand. *)

val cover_scans : t -> int
(** The candidate slots cover() has read on the workspace since
    {!create}: its solves, picks, drops and repairs.  A count of the work
    itself, exact for a seeded run. *)

(** {2 cover()}

    Greedy weighted set cover over the T_j sets of the structural trie
    nodes above a monitor's counters, as {!configure} runs it. *)

val build : t -> Monitor.t -> unit
(** The monitor's candidate table: every structural node with a non-empty
    T set, in the order the greedy breaks ties by, plus a per-switch lower
    bound on the cost of a candidate freeing that switch.  It invalidates
    the table of every earlier build, of this monitor or another; a merge
    or divide leaves it stale, except for merges at the last solve's picks
    followed by {!repair_picks}. *)

val solve_mask : t -> ex_bits:int -> ex_len:int -> Dream_traffic.Switch_mask.t -> bool
(** Greedy cover of the set, ignoring the candidates that cover the prefix
    ([ex_bits], [ex_len]) (so a merge never destroys the counter about to
    be divided; [ex_len < 0] ignores none): a low-cost set of disjoint
    ancestors whose merging frees at least one entry on every switch in
    the set, left in {!picked} and {!cost} until the next solve.  [false]
    if the set cannot be covered. *)

val picks : t -> int
(** The number of ancestors the last {!solve_mask} picked. *)

val picked : t -> int -> Dream_prefix.Prefix.t
(** [picked t i]: the ancestor the last {!solve_mask} picked [i]-th, from 0. *)

val cost : t -> float
(** The total score of the counters the last {!solve_mask}'s merges
    destroy: the picks' costs summed in pick order. *)

val repair_picks : t -> unit
(** Drop the candidates that merges at the last solve's picks destroy
    (those inside the picks' subtrees).  The per-switch bounds stay: they
    only under-estimate. *)

val bound : t -> Dream_traffic.Switch_mask.t -> unit
(** Lower bound on the cost of any cover of the set, left in
    {!last_bound}: the largest per-switch bound over it ([infinity] for a
    switch no candidate frees). *)

val last_bound : t -> float
