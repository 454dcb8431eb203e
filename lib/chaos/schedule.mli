(** Chaos schedules: explicit fault timelines.

    A schedule is a seed plus a list of timed events over a fixed horizon.
    A [Fault] carries one {!Dream_fault.Fault_model.injection} and is
    staged into the fault model ({!stage}); [Torn_tail] and [Checkpoint]
    are harness-level oracle probes that never touch the model.  Epochs
    are fault-model epochs: event [at = n] fires during the n-th
    [begin_epoch] call, which the harness issues at the start of
    controller epoch [n - 1]. *)

type event =
  | Fault of { at : int; fault : Dream_fault.Fault_model.injection }
  | Torn_tail of { at : int; drop : int }
      (** oracle probe: cut [drop] bytes off the serialized journal and
          assert the parser recovers exactly a prefix *)
  | Checkpoint of { at : int }
      (** oracle probe: snapshot, restore, re-snapshot, assert
          bit-identity; then seal a real checkpoint *)

type t = { seed : int; horizon : int; events : event list }

val pp_event : Format.formatter -> event -> unit

val generate : seed:int -> num_switches:int -> horizon:int -> events:int -> t
(** Seeded generation: equal inputs yield the identical schedule.  Events
    are sorted by epoch (stable on ties).  @raise Invalid_argument on
    non-positive dimensions. *)

val validate : num_switches:int -> t -> (unit, string) result
(** Bounds-check a schedule (e.g. one parsed from a reproducer file)
    against the harness topology before staging it: every epoch inside
    the horizon, every fault passing {!Dream_fault.Fault_model.check}. *)

val stage : t -> Dream_fault.Fault_model.t -> unit
(** {!Dream_fault.Fault_model.schedule} every fault on a fresh model.
    Harness-level probes are skipped.  @raise Invalid_argument if the
    schedule targets a switch or group the model does not have —
    {!validate} first for untrusted input. *)

val shrink_event : event -> event list
(** Strictly-smaller variants of one event (shorter windows, lower rates),
    largest reduction first; empty for atomic events. *)

val json : t Dream_util.Codec.t
(** A schedule as a reproducer file holds it: seed, horizon and events,
    each event its ["kind"], its epoch ["at"] and its kind's fields.
    Structure only — use {!validate} for range checks. *)
