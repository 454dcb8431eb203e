(** A report's items as reused parallel columns.

    Item [i], for [0 <= i < n], is the prefix of packed key [keys.(i)]
    ({!Dream_prefix.Prefix.key}) with magnitude [mags.(i)] and, in a
    buffer made with [~values:true] (HHH detections), estimated precision
    value [vals.(i)].  Keys order by first address, then length, and
    every buffer the estimators and ground truth fill is in strictly
    ascending key order, so two of them are compared by one merge.

    The fields are open so that a writer stores floats straight into the
    columns: a float passed to a function of another module is boxed.
    A writer calls {!reserve} before writing past the end, then sets
    [n]. *)

type t = {
  mutable keys : int array;
  mutable mags : float array;
  mutable vals : float array;
  mutable n : int;  (** items in use *)
  values : bool;  (** whether [vals] is kept *)
}

val create : ?values:bool -> unit -> t
(** An empty buffer with no room, keeping the [vals] column when [values]
    (default [false]). *)

val length : t -> int

val clear : t -> unit
(** Forget every item; the room stays. *)

val reserve : t -> int -> unit
(** [reserve t cap] makes room for [cap] items, keeping the first [n]. *)

val rotate : t -> int -> unit
(** [rotate t start] moves the last item to index [start], shifting
    items [start .. n - 2] up by one: how a post-order walk puts a node
    before the descendants it already wrote. *)

val common : t -> t -> int
(** The number of keys two strictly ascending buffers share. *)

val of_keys : int list -> t
(** A fresh buffer of these keys, sorted and deduplicated, with zero
    magnitudes: for scoring a list-built report off the per-epoch
    path. *)
