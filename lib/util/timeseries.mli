(** Time-series helpers for experiment output: fixed-width binning of
    (epoch, value) samples and compact ASCII sparklines, so figure
    harnesses render comparable series without a plotting stack. *)

type point = { epoch : int; value : float }

val binned : (int * float) list -> bin:int -> point list
(** Group samples into [bin]-wide epochs buckets (bucket label = lowest
    epoch), averaging the values; sorted by epoch.
    @raise Invalid_argument if [bin <= 0]. *)

val pp_series : Format.formatter -> name:string -> point list -> unit
(** One line: name, a sparkline (one bar glyph per point, scaled into
    the series' own min-max range), then min/mean/max. *)
