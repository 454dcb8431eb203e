(** Count-Min sketch (Cormode & Muthukrishnan [16]).

    The measurement primitive DREAM's paper names as its natural extension
    beyond TCAMs (Section 3): a [depth] x [width] array of counters where
    each update increments one counter per row (chosen by a per-row hash),
    and a point query returns the minimum over the rows.  Estimates never
    under-count; with probability at least [1 - e^-depth] the over-count is
    below [(e / width) * total].  The sketch's resource footprint is its
    cell count — the analogue of a task's TCAM entries. *)

type t

val create : width:int -> depth:int -> seed:int -> t
(** @raise Invalid_argument unless [width > 0] and [depth > 0]. *)

val update : t -> key:int -> float -> unit
(** Add volume to a key.  @raise Invalid_argument on negative volume. *)

val estimate : t -> key:int -> float
(** Point query: an upper bound on the key's true volume. *)

val reset : t -> unit
(** Zero all cells (start a new epoch). *)
