(** The controller's checkpoint document ([dream-checkpoint v5]): a
    deterministic, sealed text serialization of everything a controller
    needs to resume — config, fault model, breakers, every switch's
    installed rules, the allocator, robustness tallies, task records and
    every active task's runtime.  The body opens with a [[build]] section
    that lists each constant of the build once; the state sections after
    it hold none.  A document of another version is refused on its magic. *)

type t = {
  epoch : int;  (** next epoch to simulate *)
  next_id : int;  (** next task id to hand out *)
  rules_installed : int;
  rules_fetched : int;
  config : Config.t;
      (** [faults] is the spec of the {!faults} model; [telemetry] is
          never saved and parses as [None] *)
  faults : Dream_fault.Fault_model.t option;
  breakers : Dream_switch.Breaker.t array;  (** empty outside degraded mode *)
  switches : Dream_switch.Switch.t array;
      (** ids 0 .. n-1, in order, driven by the [faults] model *)
  allocator : Dream_alloc.Allocator.t;
  robustness : Metrics.robustness;
  records : Metrics.record list;  (** newest first *)
  runtimes : Runtime.t list;  (** task-id order *)
}

val emit : t -> string
(** The sealed document.  Switch TCAM update stats are not saved: parsed
    switches start with zeroed stats. *)

val parse : string -> (t, string) result
(** Inverse of {!emit}: one decode of the components' descriptions.
    [Error] on a bad checksum or magic, on a malformed body (with the line
    a description refused, such as a [[build]] constant holding another
    value), and on a well-formed body holding a value the constructors
    reject (a non-positive capacity, a malformed prefix, ...): nothing in
    a sealed document raises. *)
