(** Super-spreader detection: sources contacting more than [k] distinct
    destinations in an epoch (port scans, worm propagation, DDoS sources).

    The paper singles this out as a task TCAM counters cannot express but
    sketches can (Section 3: sketches "can cover a wider range of
    measurement tasks than TCAMs (volume and connection-based tasks such
    as Super-Spreader detection)").  The structure is a Count-Min-style
    array whose cells are distinct-counting bitmaps: each (src, dst) pair
    ors one destination bit into one cell per row; a source's fan-out
    estimate is the minimum over its rows, so collisions only ever inflate
    it (perfect recall, estimated precision — the same accuracy shape as
    {!Sketch_hh}). *)

type t

val create : cells:int -> threshold:int -> seed:int -> t
(** [cells] is the total resource budget in 64-bit bitmap cells, split
    into 4 rows; [threshold] is the fan-out k.
    @raise Invalid_argument if [cells < 4]. *)

val observe : t -> src:int -> dst:int -> unit
(** Record one connection. *)

val begin_epoch : t -> unit
(** Clear the sketch and the candidate set for a new epoch. *)

val detected : t -> (int * float) list
(** Sources whose estimated fan-out exceeds the threshold, with their
    estimates, sorted by source. *)

val estimate_precision : t -> float
(** 1 for detections clearing the threshold by the estimated collision
    inflation, 0.5 inside the uncertainty band; averaged (1 if none). *)
