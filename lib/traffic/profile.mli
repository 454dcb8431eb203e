(** Parameters of the synthetic traffic substrate.

    This replaces the paper's CAIDA trace (see DESIGN.md, substitutions).
    A profile describes the flow population under one task filter: a
    Pareto-tailed set of heavy sources around the task threshold, a band of
    medium sources that create drill-down ambiguity, and a mass of small
    sources.  Phases rescale the heavy population over time (temporal
    multiplexing); churn and jitter create change-detection events and
    volume noise; switch skew creates spatial diversity. *)

type phase = { start_epoch : int; heavy_scale : float }
(** From [start_epoch] on, the active heavy population is
    [heavy_count *. heavy_scale] (rounded). *)

type t = {
  threshold : float;  (** task threshold in Mb used to calibrate volumes *)
  heavy_count : int;  (** nominal count of sources above the threshold *)
  medium_count : int;  (** sources in (threshold/8, threshold) *)
  small_count : int;  (** sources below threshold/8 *)
  heavy_alpha : float;  (** Pareto tail index of heavy base volumes *)
  churn : float;  (** per-source per-epoch replacement probability *)
  jitter : float;  (** lognormal sigma applied to volumes each epoch *)
  phases : phase list;  (** sorted by [start_epoch]; empty = constant *)
  switch_skew : float;  (** Zipf exponent over sub-filters for placement *)
}

val default : threshold:float -> t
(** A calibrated profile: ~8 heavy, 24 medium, 64 small sources, alpha
    1.25, 2% churn, 0.18 jitter, mild (0.6) switch skew, phases that halve
    then double the heavy population.  Sized so one task's resource target
    is a few hundred TCAM entries — the scale of the paper's Figure 2. *)

val validate : t -> (unit, string) result
(** Check ranges (counts non-negative, probabilities in \[0,1\], alpha > 1,
    phases sorted with non-negative scales). *)

val codec : t Dream_util.Codec.t
(** The profile in a checkpoint. *)
