(** Comparator and trend summarizer over {!Bench_snapshot} documents —
    the engine behind the [dream_bench] CLI and the CI perf gate.

    [diff] compares two snapshots of the same figure metric-by-metric.
    Each metric's gating direction comes from the *base* snapshot (the
    committed contract).  A gated metric (one with a direction) must equal
    its baseline exactly: seeded runs repeat bit for bit, so a move in the
    worse direction is a regression and a move in the better direction
    fails too, until the baseline is re-snapshotted — a stale baseline
    would otherwise let a later regression back in unseen.  A metric is
    matched on its name, unit and direction.  One present in the base but
    missing from the new snapshot fails (lost coverage), and so does one
    only the new snapshot carries: the baseline must be re-snapshotted to
    hold it.  So a unit or direction changed under one name fails twice,
    as missing and as added.  {!Bench_snapshot.Info} metrics and the
    phase rows (wall time and allocated words, which move with the
    machine and the collector) are informational and never gate.

    [trend] folds an ordered series of snapshot sets into per-metric
    trajectories (first/last/min/max) for the nightly trend job. *)

type status =
  | Unchanged  (** equal to the baseline, or an {!Bench_snapshot.Info} metric *)
  | Improved  (** gated and better than the baseline — fails until re-snapshotted *)
  | Regressed  (** gated and worse than the baseline — fails *)
  | Missing  (** in the base set but absent from the new one — fails *)
  | Added  (** only in the new snapshot — fails until re-snapshotted *)

type row = {
  r_name : string;
  r_base : float option;
  r_current : float option;
  r_delta_pct : float;
      (** for display and trends only; 0 when either side is absent; may
          be [infinity] when the baseline is zero *)
  r_direction : Bench_snapshot.direction;
  r_status : status;
}

type report = { d_figure : string; d_rows : row list; d_failures : int }

val diff : base:Bench_snapshot.t -> Bench_snapshot.t -> (report, string) result
(** [diff ~base current].  [Error] (the comparator's bad-input case) on a
    figure or scale (quick/full) mismatch. *)

val failures : report list -> int
(** Rows that fail the gate: regressed, improved, missing or added. *)

val pp_report : Format.formatter -> report -> unit
(** One line per row: status, name, base, current, delta; an improved
    or added row asks for the baseline to be re-snapshotted. *)

val report_to_json : report -> Json.t

type trend_row = {
  t_figure : string;
  t_name : string;
  t_unit : string;
  t_points : (string * float) list;  (** (series label, value) in series order *)
  t_min : float;
  t_max : float;
  t_delta_pct : float;  (** last vs first; may be [infinity] *)
}

val trend : (string * Bench_snapshot.t) list -> trend_row list
(** [(label, snapshot)] pairs in series order; snapshots are grouped by
    (figure, metric) and each group ordered as given. *)

val pp_trend : Format.formatter -> trend_row list -> unit
