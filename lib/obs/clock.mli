(** Monotonic time source for the telemetry layer.

    The controller used to call [Sys.time] directly whenever it wanted to
    price its own computation; every such clock read now goes through a
    {!t}, so tests can substitute a {!manual} clock and get bit-for-bit
    deterministic profile spans, and the trace spans read from them. *)

type t

val now_ms : t -> float
(** Current reading in milliseconds.  Monotone non-decreasing. *)

val write : t -> float array -> int -> unit
(** [write t a i] stores {!now_ms} in [a.(i)], boxing no float. *)

val cpu : t
(** Process CPU time ([Sys.time]), scaled to milliseconds — the default,
    and exactly the clock the controller used before telemetry existed. *)

type manual

val manual : ?start:float -> unit -> t * manual
(** A clock that only moves when told to: [now_ms] returns the last value
    set through {!advance}.  Deterministic by construction. *)

val advance : manual -> float -> unit
(** Move the manual clock forward by [ms].
    @raise Invalid_argument on a negative step (the clock is monotonic). *)
