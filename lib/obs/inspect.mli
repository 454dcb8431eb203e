(** Reader for a telemetry directory written by {!Telemetry.write_dir}:
    parses the JSONL trace, the Prometheus snapshot and the CSV time
    series back into a human-readable report — phase-latency percentiles
    (the two clocks in tables of their own, each phase where the trace
    first mentions it), event tallies, robustness counters, and the
    noisiest (highest allocation-churn) tasks.

    Every line of every artifact is validated; a malformed line fails the
    whole load with its file and line number, which is what the CI job
    leans on to guarantee the exporters only ever emit well-formed
    output. *)

type phase_stat = {
  phase : string;
  samples : int;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
}

type task_churn = {
  task : int;
  kind : string;
  alloc_changes : int;  (** epochs where the task's total allocation moved *)
  mean_accuracy : float;
  epochs_active : int;
}

type report = {
  dir : string;
  epochs : int;  (** distinct epochs of the trace's spans, which every tick writes *)
  spans : int;
  events : int;
  modelled : phase_stat list;  (** [model/…] spans, the delay model's switch time *)
  measured : phase_stat list;  (** [epoch] and [epoch/…] spans, measured controller time *)
  event_counts : (string * int) list;  (** by descending count *)
  counters : (string * int) list;  (** every counter in the snapshot, by name *)
  noisiest : task_churn list;  (** top-k by [alloc_changes] *)
  profile : Profile.stat list;
      (** [profile.json] span stats; empty when the run did not profile *)
}

val load : ?top:int -> string -> (report, string) result
(** [load dir] reads the bundle under [dir]; [top] bounds [noisiest]
    (default 5). *)

val pp : robustness:string list -> Format.formatter -> report -> unit
(** The human summary the [inspect] subcommand prints.  [robustness]
    names the robustness counters, in the order they are listed; each is
    printed only when nonzero. *)
