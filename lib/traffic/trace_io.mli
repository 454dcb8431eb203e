(** Plain-text trace files, so recorded or externally produced traffic can
    be replayed through the controller in place of the synthetic generator.

    Format: one flow per line, [epoch switch address volume], addresses in
    dotted-quad form, '#' comments and blank lines ignored; epochs must be
    non-decreasing.  Example:

    {v
    # dream trace
    0 0 10.16.3.9 12.5
    0 1 10.17.0.2 3.0
    1 0 10.16.3.9 11.9
    v} *)

val save_file : string -> Epoch_data.t list -> unit

val load_file : string -> (Epoch_data.t list, string) result
(** Errors carry the offending line number and reason. *)

val record :
  Generator.t -> epochs:int -> Epoch_data.t list
(** Materialise a synthetic trace (e.g. to save it for replay). *)
