(** Registry of all figure harnesses keyed by the ids used in DESIGN.md's
    per-experiment index.  Figures that share runs are grouped (fig6 also
    prints Fig 7, etc.).

    Every harness returns its headline numbers as
    {!Dream_obs.Bench_snapshot.metric} values; with [snapshot_dir] set the
    runner wraps the run in a {!Dream_obs.Profile} span and writes the
    versioned [BENCH_<figure>.json] snapshot (metrics + measured phases)
    there — the artifact [dream_bench] and the CI perf gate compare. *)

val all : (string * string) list
(** (id, description) in presentation order. *)

val run : ?snapshot_dir:string -> quick:bool -> string -> (unit, string) result
(** Run one figure id; [Error] names the unknown id or a snapshot-write
    failure.  Each run profiles into a fresh {!Dream_obs.Profile}. *)

val run_all :
  ?snapshot_dir:string ->
  quick:bool ->
  unit ->
  (unit, string) result
(** Run every figure; collects all failures into one [Error]. *)
