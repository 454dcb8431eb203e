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
    {!Monitor.divide}, and leaves the monitor's gap open only between
    them: {!configure} returns the table settled ({!Monitor.settle}).
    Switch sets are {!Dream_traffic.Switch_mask} bitmasks over a
    monitor's sub-filters. *)

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
