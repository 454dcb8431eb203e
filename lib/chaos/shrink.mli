(** Failing-schedule minimization (delta debugging).

    Given a schedule for which [fails] holds, find a smaller one for which
    it still holds: first ddmin over the event list (drop chunks, then
    single events), then per-event shrinking (shorter downtimes and
    windows, lower rates) to a fixpoint.  [fails] re-runs the harness, so
    every accepted step is a genuine replayable reproducer. *)

type stats = { runs : int; initial_events : int; final_events : int }

val minimize : fails:(Schedule.t -> bool) -> Schedule.t -> Schedule.t * stats
(** [minimize ~fails sched] assumes [fails sched] is true and returns a
    minimized schedule for which it still is, plus how much work that
    took.  It makes at most 2000 [fails] evaluations; at the budget the
    current reduction is returned. *)
