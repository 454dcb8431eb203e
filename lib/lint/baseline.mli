(** Committed findings baseline with a ratchet.

    The two interprocedural passes surface real pre-existing debt; the
    baseline lets CI fail on {e new} findings while the inventory burns
    down.  Granularity is per (rule, file) {e count} — line numbers shift
    too much to fingerprint individual findings, counts do not — and each
    entry can carry a human reason (why this debt is parked, not fixed).

    Ratchet semantics:
    - the gate ({!diff}) fails when any (rule, file) count exceeds its
      baseline entry (a missing entry is a zero);
    - {!update} refuses to grow any entry of an existing baseline — the
      committed file can only shrink; new debt is either fixed or
      explicitly allowed at the site ([[@alloc.allow]]/[[@lint.allow]]);
    - reasons survive {!update} for entries that persist.

    {!debt_snapshot} renders current per-rule totals as a
    [Bench_snapshot] ([BENCH_lint_debt.json], every count [Lower_better])
    so [dream-bench trend] tracks the burn-down next to perf. *)

type entry = {
  b_rule : string;
  b_file : string;
  b_count : int;  (** > 0 *)
  b_reason : string option;
}

type t = entry list
(** Always sorted by (rule, file); entries unique per (rule, file). *)

val of_findings : Finding.t list -> t
(** Count findings per (rule, file); no reasons. *)

type delta = {
  d_rule : string;
  d_file : string;
  d_baseline : int;  (** 0 when the key is absent from the baseline *)
  d_current : int;
}

type diff = {
  fresh : delta list;  (** current > baseline: ratchet violations *)
  improved : delta list;  (** current < baseline: stale entries to shrink away *)
}

val diff : baseline:t -> current:t -> diff
(** Both lists sorted by (rule, file). *)

val update : old_:t option -> current:t -> (t, string) result
(** The new baseline: [current]'s counts with [old_]'s reasons carried
    forward on persisting keys.  With [old_ = Some _] (the committed file
    exists) any grown or new key is an error naming the keys — bootstrap
    from nothing is the only way the baseline grows. *)

val debt_snapshot : Finding.t list -> Dream_obs.Bench_snapshot.t
(** Figure id ["lint-debt"]: one [debt_<rule>] metric per rule with
    findings plus [debt_total], all counts, all [Lower_better], so each
    must equal its baseline exactly. *)

val read : string -> (t, string) result
(** Load a baseline file; the error names the path. *)

val write : t -> path:string -> (unit, string) result
