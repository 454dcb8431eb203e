(** Figure 2: accuracy of HH detection.

    (a) Recall of one heavy-hitter task over time under fixed counter
    budgets (256..2048 entries): more counters mean higher recall, and
    recall sags when the trace's heavy-hitter population grows.

    (b) With the same budget, two switches seeing skewed shares of the
    traffic reach different per-switch recall — the spatial-diversity
    leverage DREAM exploits. *)

val run : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** Prints the figure tables and returns the headline numbers (mean
    recall per budget and per switch) for the benchmark snapshot. *)
