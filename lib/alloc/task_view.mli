(** What an allocator is allowed to see of a task: its identity, the
    switches it needs counters on, its accuracy bound, and the smoothed
    overall accuracy per switch (Section 4).  Its id is also its place in
    the drop order: tasks drop in arrival order, the latest first.
    Allocators never see reports, counters or traffic — that separation
    is what makes DREAM's allocation local and task-type-independent. *)

type t = {
  id : int;
  topology : Dream_traffic.Topology.t;  (** what the bits of [switches] stand for *)
  switches : Dream_traffic.Switch_mask.t;
}
(** A task at admission: the switches it asks for entries on. *)

(** Every admitted task as one allocation round sees it: one row per task,
    in ascending id order, which is the order the round visits them (and
    serves poor tasks in under shortage).  The owner sets [rows] and refills
    the columns in place before each round, and grows them ({!reserve})
    when a task is admitted, so a round allocates nothing.  The per-switch
    columns are indexed [row * num_switches + sw]. *)
type table = {
  num_switches : int;
  mutable rows : int;  (** rows in use *)
  mutable ids : int array;
  mutable bounds : float array;  (** target accuracy bound in \[0, 1\] *)
  mutable overall : float array;
      (** smoothed [max (global, local)] accuracy of the row's task on a
          switch (1.0 on a switch outside its topology) *)
  mutable used : int array;
      (** TCAM entries the task's configuration actually occupies on a
          switch — lets the allocator distinguish a poor task that is
          counter-starved (used = allocated) from one whose accuracy
          problem more counters cannot fix, and reclaim unused
          allocation *)
}

val table : num_switches:int -> table
(** An empty table over switches [0 .. num_switches-1]. *)

val reserve : table -> int -> unit
(** Grow the columns, by doubling, to hold at least that many rows.
    Growth keeps no values: every column of the rows in use is to be
    written before a round. *)
