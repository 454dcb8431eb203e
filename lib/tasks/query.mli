(** A small builder for measurement queries — the user-facing way to write
    "find heavy hitters over 10/8 sending more than 8 Mb, at 90% accuracy"
    without touching {!Task_spec} records:

    {[
      Query.(
        heavy_hitters ~over:"10.0.0.0/8"
        |> exceeding_mb 8.0
        |> with_accuracy 0.9
        |> to_spec_exn)
    ]}

    Builders are immutable; {!to_spec_exn} validates everything at once. *)

type t

val heavy_hitters : over:string -> t
(** HH detection over the dotted-quad prefix filter [over]. *)

val exceeding_mb : float -> t -> t
(** Threshold in Mb per epoch (default 8). *)

val with_accuracy : float -> t -> t
(** Accuracy bound in \[0, 1\] (default 0.8, the diminishing-returns
    point). *)

val drill_to : int -> t -> t
(** Prefix length of an "exact" item (default 32: exact IPs). *)

val to_spec_exn : t -> Task_spec.t
(** Validate and build.
    @raise Invalid_argument with a message naming the offending field. *)
