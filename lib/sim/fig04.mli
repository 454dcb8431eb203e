(** Figure 4: comparing step-update policies (MM/AM/AA/MA).

    An isolated allocation loop tracks a time-varying resource target: the
    task is "rich" when its allocation exceeds the (hidden) target and
    "poor" otherwise; allocations move by the current step, and the step
    adapts per policy.  MM converges quickly after target jumps and settles
    tight; additive-increase policies lag, and MA overshoots for long. *)

val run : quick:bool -> Dream_obs.Bench_snapshot.metric list
(** Prints the figure — the moving goal and each policy's allocation,
    sampled every [epochs / 25] epochs, as series named [Goal], [MM],
    [AM], [AA] and [MA] — and returns each policy's convergence score,
    the mean |allocation - goal| over the run, as [mae_<policy>]. *)
