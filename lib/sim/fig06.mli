(** Figures 6–11: per-task satisfaction (mean and 5th percentile) and
    rejection/drop ratios versus switch capacity under DREAM, Equal and
    Fixed_32.  Each pair of figures comes from one set of runs, so one
    call prints both. *)

val run : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** Figs 6/7: prototype scale, each workload (HH, HHH, CD, combined). *)

val run_prototype : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** Figs 8/9: simulator validation.  The paper runs the same workload
    through its prototype (real switches, control-loop delay, satisfaction
    scored with estimated accuracy) and its simulator (no delay, real
    accuracy) and shows the curves agree, with the prototype's tail
    slightly lower (missed traffic during rule updates) and its rejection
    slightly lower.  The "_p" rows use {!Dream_core.Config.prototype},
    plain rows the simulator configuration.  Quick mode runs the combined
    workload only. *)

val run_large : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** Figs 10/11: large scale, more switches and tasks.  Quick mode runs
    the combined workload only. *)
