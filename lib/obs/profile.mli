(** The span recorder: wall time plus GC/allocation deltas per span,
    aggregated by span path.

    A profile measures *controller* cost, not simulated cost.  Each span
    path (["epoch"], ["epoch/allocate"], ...) is interned once, at setup,
    to a {!span}; the hot path then only calls {!start} and {!stop} on it,
    which read the profile's {!Clock} (and its {!Gc_stats} source, if it
    has one) and accumulate into preallocated cells without allocating.
    A span may run in many fragments an epoch — the controller times
    estimate once per task — and its fragments add up in that epoch's
    cell.  {!close_epoch} then folds every cell into the span's aggregate
    {!stat}: one count per span per close, whether or not the span ran.

    Paths name the nesting: a child path's cost is also part of its
    parent's (the usual flame-graph convention).  With a {!Clock.manual}
    clock and a {!Gc_stats.manual} source a profile is bit-for-bit
    deterministic, which is how the tests pin every number below.

    A profile is attached to a run through [Telemetry.create ~profile];
    without one the controller times its phases on a {!wall_only}
    profile, so no GC read ever happens and the run is byte-identical to
    a build without profiling. *)

type stat = {
  path : string;  (** ["/"]-joined span path, e.g. ["epoch/allocate"] *)
  count : int;  (** closed epochs aggregated into this path *)
  wall_ms : float;  (** total wall time across those epochs *)
  gc : Gc_stats.reading;  (** total GC deltas across those epochs *)
}

type t

type span
(** An interned span path of one profile. *)

val create : ?clock:Clock.t -> ?gc:Gc_stats.t -> unit -> t
(** Defaults: {!Clock.cpu} and {!Gc_stats.real}. *)

val wall_only : unit -> t
(** A {!Clock.cpu} profile with no GC source: it times spans but never
    reads the GC, and its stats carry zero GC deltas. *)

val intern : t -> string -> span
(** The span recording under [path], created on first use; interning a
    path again returns the same span. *)

val path : t -> span -> string
(** The path the span was interned under. *)

val start : t -> span -> unit
(** Open a fragment of the span now. *)

val stop : t -> span -> unit
(** Add the time (and GC delta) since the span's last {!start} to this
    epoch's cell. *)

val epoch_ms : t -> span -> float
(** The span's wall time so far this epoch. *)

val close_epoch : t -> unit
(** Fold every span's epoch cell into its stat and clear the cells. *)

val stats : t -> stat list
(** Every path closed at least once, sorted by path, so profiles are
    deterministic. *)

val find : t -> string -> stat option

val observe_epoch : Registry.t -> t -> span -> unit
(** Fold the span's cost so far this epoch into a metrics registry: an
    [epoch_alloc_words] histogram and [alloc_rate_words_per_ms] gauge
    (allocation rate), [gc_minor_collections]/[gc_major_collections]/
    [gc_compactions] counters, and a [gc_major_epoch_ms] histogram of the
    wall time of epochs that contained at least one major collection —
    the closest pause proxy [Gc.quick_stat] affords. *)

(** {1 Snapshot codec} *)

val stats_json : stat list Dream_util.Codec.t
(** The [phases] member of a [Bench_snapshot], and the whole [profile.json]
    artifact written by {!Telemetry.write_dir}: one object per stat. *)
