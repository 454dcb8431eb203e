(** Mockable source of GC counters, the allocation-side twin of {!Clock}.

    Profiling wants GC counter deltas around every measured span, but
    a raw [Gc] read is as non-deterministic as a wall-clock read: the
    numbers depend on the runtime, not the simulation.  Every GC read
    therefore goes through a {!t} — the one blessed [real] source wraps
    the runtime's counters, and tests substitute a {!manual} source to get
    bit-for-bit deterministic profiles (the same pattern {!Clock.manual}
    uses for time). *)

type reading = {
  minor_words : float;  (** words allocated in the minor heap, cumulative *)
  promoted_words : float;  (** minor-heap words that survived into the major heap *)
  major_words : float;  (** words allocated in (or promoted to) the major heap *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

val sub : reading -> reading -> reading
(** [sub after before] is the component-wise delta of two cumulative
    readings. *)

type t

val read : t -> reading
(** Current cumulative counters.  Monotone non-decreasing for [real]. *)

val real : t
(** Exact words: [Gc.minor_words] for the minor count and [Gc.counters]
    for the promoted and major counts, all three as of one instant, and
    [Gc.quick_stat] for the collection counts — the only direct GC reads
    in the tree.  Each read's minor count nets out the words every earlier
    read on its domain allocated (a per-read constant measured once at
    start-up, times a per-domain read count), so
    the delta of two reads is exactly what ran between them: a span is
    charged its own allocations to the word, wherever the runtime's minor
    collections and major slices happen to fall. *)

type manual

val manual : ?start:reading -> unit -> t * manual
(** A source that only moves when told to: [read] returns the last value
    installed through {!advance}.  Deterministic by construction. *)

val advance : manual -> reading -> unit
(** Add [delta] onto the manual source's current reading. *)
