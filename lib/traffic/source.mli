(** A per-task traffic source: either the synthetic generator or a recorded
    trace being replayed.  The controller pulls one epoch per tick from
    whichever kind it was given, so real traces (via {!Trace_io}) and
    synthetic ones are interchangeable. *)

type t

val of_generator : Generator.t -> t

val replay : ?cycle:bool -> Epoch_data.t array -> t
(** Replay recorded epochs in order.  With [cycle] (default true) the trace
    wraps around at the end; otherwise it continues with empty epochs.
    @raise Invalid_argument on an empty trace. *)

val next : t -> Epoch_data.t
(** The next epoch's traffic; epoch indices are renumbered consecutively
    from the source's own counter. *)

val current_epoch : t -> int

val codec : t Dream_util.Codec.t
(** The source state — synthetic generators serialize their full RNG and
    population, replay sources their recorded epochs — so a restored
    source resumes mid-trace at the same clock. *)
