(** The telemetry-overhead figure: time the same experiment with the
    telemetry bundle attached and detached, report the per-epoch cost of
    tracing + metrics (< 5% is the budget; detached must be free), and
    check the two runs produced identical summaries — the zero-diff
    guarantee made visible in the bench output.

    The same numbers come back as benchmark-snapshot metrics (the figure
    runner writes [BENCH_telemetry_overhead.json]): wall-clock timings are
    [Info] — tracked, never gating — while the trace volume, the
    zero-diff bit and the words one profiled run allocates per epoch, in
    the whole epoch ([epoch_alloc_words]) and in each of its phase spans
    ([fetch_alloc_words], ..., [retire_alloc_words]), gate exactly. *)

val run : quick:bool -> Dream_obs.Bench_snapshot.metric list
