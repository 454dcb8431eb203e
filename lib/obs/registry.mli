(** Typed metrics registry: named counters, gauges and log-scale
    histograms, each optionally carrying static labels (task kind, switch
    id, allocator, …).

    An instrument is identified by its (name, labels) pair; asking for the
    same pair twice returns the same instrument, so independent code paths
    can never increment two divergent copies of one metric — the failure
    mode the controller's old hand-rolled robustness record invited.
    Asking for an existing pair with a different instrument kind raises.

    Instruments are plain mutable cells: an increment is a field write, so
    registry-backed counters cost the same on the hot path as the mutable
    ints they replaced. *)

type t

type labels = (string * string) list
(** Stored sorted by key; order in which callers list them is irrelevant. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val set : t -> int -> unit
  (** Overwrite the value — checkpoint restore only. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
end

module Histogram : sig
  (** Log-scale histogram: positive observations land in geometric buckets
      (ratio 1.25 between consecutive bounds), non-positive ones in a
      dedicated underflow bucket.  Exact count and sum are kept alongside,
      and the Prometheus exposition reads all three. *)

  type t

  val observe : t -> float -> unit
end

val create : unit -> t

val counter : t -> ?labels:labels -> ?help:string -> string -> Counter.t
(** Find or create.  [help] attaches Prometheus [# HELP] text to the
    metric name (the first registration's text wins; later ones are
    ignored).  @raise Invalid_argument if (name, labels) already names a
    gauge or histogram. *)

val gauge : t -> ?labels:labels -> ?help:string -> string -> Gauge.t

val histogram : t -> ?labels:labels -> ?help:string -> string -> Histogram.t

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Histogram.t

type sample = { name : string; labels : labels; value : value }

val to_prometheus : t -> string
(** The whole registry in the Prometheus text exposition format.  Metric
    names are prefixed with [dream_]; counters gain the conventional
    [_total] suffix; histograms emit cumulative [_bucket] series plus
    [_sum] and [_count].  Each family is preceded by its [# HELP] line
    (when help text was registered) and a [# TYPE] line; label names are
    sanitized to [[a-zA-Z_][a-zA-Z0-9_]*] and label values escape
    backslash, double quote and newline per the exposition format. *)
