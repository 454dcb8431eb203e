(** Versioned, machine-readable benchmark snapshot: the [BENCH_<figure>.json]
    artifact every figure harness and micro-benchmark emits, and the unit
    the trajectory tooling ([dream_bench diff]/[trend], the CI perf gate)
    compares.

    A snapshot carries the figure id, the scale it ran at, the seed set,
    a list of named scalar metrics — each with a unit and a gating
    direction — and the profile phases (wall + GC deltas) measured around
    the run.  Wall-clock metrics are emitted with {!Info} direction so a
    noisy machine can never fail the gate on them, while deterministic
    outputs (satisfaction percentages, counters, allocation words) carry a
    direction and must equal their baseline exactly: a seeded simulation
    reproduces every gated number bit for bit, so any move is a change to
    explain or re-snapshot.  Version 1 gave each metric a percentage of
    slack; version 2 has none, and a version-1 file is refused at its
    version member rather than read as exact.

    {!write} and {!read} walk one {!Dream_obs.Json} description, so {!read}
    is the exact inverse of {!write} for every value {!write} accepts;
    non-finite numbers have no JSON spelling, so a NaN snapshot neither
    writes nor parses — the comparator's bad-input exit (124) leans on
    this. *)

type direction =
  | Lower_better  (** any increase is a regression *)
  | Higher_better  (** any decrease is a regression *)
  | Info  (** tracked in diffs and trends, never gates *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;  (** "ms", "words", "pct", "count", … *)
  m_direction : direction;
}

type t = {
  figure : string;  (** figure id, e.g. ["fig6"], ["degraded-mode"], ["micro"] *)
  quick : bool;  (** quick scale vs [--full]; never compared across scales *)
  seeds : int list;
  metrics : metric list;
  phases : Profile.stat list;
}

val metric : ?unit_:string -> ?direction:direction -> string -> float -> metric
(** Defaults: unit [""], direction {!Info}. *)

val direction_to_string : direction -> string
(** ["lower"], ["higher"] or ["info"] — the JSON spelling. *)

val make :
  figure:string ->
  quick:bool ->
  ?seeds:int list ->
  ?metrics:metric list ->
  ?phases:Profile.stat list ->
  unit ->
  t

val write : t -> dir:string -> (string, string) result
(** Validate (every metric and phase value finite, metric names unique),
    then write the one-line JSON document as
    [dir/BENCH_<figure>.json], every character of the figure outside
    [[A-Za-z0-9_]] mapped to ['_'] (so ["degraded-mode"] keeps its
    historical [BENCH_degraded_mode.json] name), creating [dir] (and
    parents) if needed; returns the path written. *)

val read : string -> (t, string) result
(** Load and validate a snapshot file; the error names the path. *)
