(** What an allocator is allowed to see of a task: its identity, the
    switches it needs counters on, its accuracy bound, its drop priority,
    and the smoothed overall accuracy per switch (Section 4).  Allocators
    never see reports, counters or traffic — that separation is what makes
    DREAM's allocation local and task-type-independent. *)

type t = {
  id : int;
  topology : Dream_traffic.Topology.t;  (** what the bits of [switches] stand for *)
  switches : Dream_traffic.Switch_mask.t;
  bound : float;  (** target accuracy bound in \[0, 1\] *)
  drop_priority : int;  (** higher = dropped first *)
  overall : Dream_traffic.Switch_id.t -> float;
      (** smoothed [max (global, local)] accuracy on a switch *)
  used : Dream_traffic.Switch_id.t -> int;
      (** TCAM entries the task's configuration actually occupies on a
          switch — lets the allocator distinguish a poor task that is
          counter-starved (used = allocated) from one whose accuracy
          problem more counters cannot fix, and reclaim unused
          allocation *)
}
