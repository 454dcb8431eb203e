(** Approximate distinct counting with linear (bitmap) counting.

    A [b]-bit bitmap; each element sets one hashed bit; the distinct-count
    estimate is [-b * ln(zeros / b)] (Whang et al.), accurate while the
    load factor stays moderate.  Used per-cell by {!Super_spreader} to
    count distinct destinations per source — the connection-based
    measurement the paper names as sketch-only territory (Section 3). *)

type t

val create : bits:int -> seed:int -> t
(** @raise Invalid_argument if [bits <= 0]. *)

val add : t -> int -> unit
(** Record one element (by integer identity). *)

val estimate : t -> float
(** Estimated number of distinct elements added.  Saturates at
    [b * ln b] when every bit is set. *)

val reset : t -> unit
