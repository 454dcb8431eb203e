(** Structured trace of the control loop: per-epoch phase spans plus
    discrete events (admit/reject/eject, reconfigurations, fault
    injections, recovery reconciliations).

    A span's phase names one of two clocks: [model/fetch] and
    [model/save] are the delay model's switch time (Fig 17's fetch and
    save), and [epoch] and [epoch/…] measured controller time, each the
    epoch cell of the {!Profile} span of that path.

    Items are buffered in memory in emission order and serialized to JSONL
    (one JSON object per line) by the exporter through {!item_json}, the
    one description the [inspect] subcommand and the tests read it back
    with. *)

type field = Int of int | Float of float | Str of string

type item =
  | Span of { epoch : int; phase : string; ms : float }
      (** one control-loop phase of one epoch, with its duration *)
  | Event of { epoch : int; name : string; fields : (string * field) list }

type t

val create : unit -> t

val span : t -> epoch:int -> phase:string -> ms:float -> unit

val event : t -> epoch:int -> name:string -> (string * field) list -> unit
(** Field keys must avoid the reserved ["t"], ["epoch"] and ["name"]. *)

val items : t -> item list
(** Emission order. *)

val spans : t -> phase:string -> float list
(** The [ms] of every span of [phase], in emission order. *)

val length : t -> int

val item_json : item Dream_util.Codec.t
(** One [trace.jsonl] line: a ["t"] of ["span"] or ["event"], then the
    epoch and the item's fields; an event's own fields follow as members
    of their own. *)
