(** Deterministic simulation harness: run one chaos schedule end to end.

    A run drives the standard controller loop ({!Dream_workload.Drive}:
    arrivals, storms fed from its storm pool, fail-over on controller
    crashes — as in the crash-recovery experiment) over a fixed small
    topology, with the schedule staged into the fault model, and evaluates
    the {!Oracle} suite after every tick.  Everything is a pure function
    of (schedule, canary flag): two runs of the same schedule are
    byte-identical, which is what makes shrinking and replay possible. *)

val num_switches : int
(** 8 — the fixed chaos topology. *)

val default_horizon : int

val default_events : int

val reference_digest : seed:int -> horizon:int -> string
(** Digest of the seed run: same scenario and config, driven with none of
    the chaos machinery (no journal, checkpoints or oracles).
    The differential oracle asserts an empty schedule matches this byte
    for byte. *)

type result = {
  schedule : Schedule.t;
  canary : bool;
  violations : Oracle.violation list;  (** empty = the schedule passed *)
  recoveries : int;  (** controller fail-overs survived *)
  checkpoints : int;  (** scheduled checkpoint probes taken *)
  torn_tail_checks : int;
  storm_submissions : int;
  canary_fired : bool;  (** the planted bug's trigger condition was met *)
  summary : Dream_core.Metrics.summary;
  digest : string;  (** canonical run fingerprint, see {!reference_digest} *)
}

val failed : result -> bool

val run : ?canary:bool -> Schedule.t -> result
(** Execute one schedule.  [canary] plants the guarded demonstration bug:
    the first time a storm lands during an open partition window, one
    allocation is corrupted past switch capacity — the invariant oracle
    must catch it.  Never set outside tests and demonstrations. *)
