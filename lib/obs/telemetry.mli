(** The telemetry bundle a controller instruments against: one metrics
    {!Registry}, one {!Trace} and, optionally, the {!Profile} whose clock
    times the control-loop phases.

    A bundle is attached to exactly one run (pass it in
    [Dream_core.Config.telemetry]); reusing it across runs accumulates
    counters across both.  When no bundle is attached — the default — the
    controller creates a private registry for its own counters, records no
    trace, and behaves bit-identically to a build without telemetry.

    {!write_dir} exports everything at once:
    - [trace.jsonl] — every span and event, one JSON object per line;
    - [metrics.prom] — the registry in Prometheus text format;
    - [profile.json] — the {!Profile} span stats (only when a profile is
      attached);
    - [tasks.csv] — per-task per-epoch time series
      (epoch, task, kind, accuracy, satisfied, alloc);
    - [switches.csv] — per-switch per-epoch time series
      (epoch, switch, rules, fetches, installs, removals). *)

type t

val create : ?profile:Profile.t -> unit -> t
(** A fresh registry and trace.  Default: no profile — GC profiling is
    strictly opt-in, and a bundle without a profile performs no GC read
    anywhere. *)

val registry : t -> Registry.t

val trace : t -> Trace.t

val profile : t -> Profile.t option

type task_row = {
  epoch : int;
  task : int;
  kind : string;
  accuracy : float;  (** scored accuracy this epoch *)
  satisfied : bool;
  alloc : int;  (** total counters allocated across switches *)
}

type switch_row = {
  epoch : int;
  switch : int;
  rules : int;  (** TCAM occupancy at epoch end *)
  fetches : int;
  installs : int;
  removals : int;
}

val record_task : t -> task_row -> unit

val record_switch : t -> switch_row -> unit

val write_dir : t -> dir:string -> (unit, string) result
(** Write all four artifacts into [dir] (which must exist).  [Error] with
    the failing path on any I/O problem. *)

val tasks_csv_header : string

val switches_csv_header : string
