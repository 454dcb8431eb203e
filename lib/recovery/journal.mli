(** Write-ahead journal of control-plane outcomes.

    The journal holds exactly what fail-over replays: task admissions and
    rejections, every allocation value of each round, task endings with
    their final record fields, and observed switch crashes and
    recoveries.  Each entry is appended {e before} its effects are
    applied.  Recovery after a controller crash is then: load the last
    checkpoint, fold the journal suffix into it, and audit each switch
    against the result.

    Rule installs and deletes are not journalled.  The audit derives the
    rules every switch should hold from the restored tasks' monitors and
    fixes whatever differs, so a record of the dead controller's rule
    updates would tell recovery nothing it uses.

    Entries carry raw data (spec, topology, serialized source, record
    fields) rather than live objects, so replay rebuilds controller state
    without re-running any decision logic: the journal records
    {e outcomes}, and replay applies them verbatim.  This is what makes
    replay deterministic even though the original decisions depended on
    transient allocator state that is not checkpointed.  What the
    successor's checkpoint already holds (the build's constants, the
    accuracy mode) is not repeated per entry: the checkpoint replay starts
    from was written by the same run.

    A journal has no magic.  A v4 admit entry, which has a [drop_priority]
    line where this format reads the spec's [[spec]] marker, is refused at
    that line; replay also needs a checkpoint, and a v4 one is refused. *)

type end_cause = Completed | Dropped

type entry =
  | Admit of {
      epoch : int;
      task_id : int;
      spec : Dream_tasks.Task_spec.t;
      topology : Dream_traffic.Topology.t;
      duration : int;
      source : string;
          (** the task's traffic source, serialized at admission time
              ({!Dream_traffic.Source.codec}); replay fast-forwards it to
              the recovery epoch by discarding epochs, which consumes
              exactly the RNG draws the live run would have *)
    }
  | Reject of { epoch : int; task_id : int; kind : Dream_tasks.Task_spec.kind }
  | Alloc of { epoch : int; task_id : int; switch : Dream_traffic.Switch_id.t; alloc : int }
  | Switch_down of { epoch : int; switch : Dream_traffic.Switch_id.t }
      (** the switch crashed: its TCAM contents are gone *)
  | Switch_up of { epoch : int; switch : Dream_traffic.Switch_id.t }
  | Task_end of {
      epoch : int;
      task_id : int;
      kind : Dream_tasks.Task_spec.kind;
      cause : end_cause;
      arrived_at : int;
      active_epochs : int;
      satisfaction : float;
      mean_accuracy : float;
    }

val entry_name : entry -> string
(** Stable lowercase tag per constructor ([Admit] -> ["admit"], …) — used
    to break down replayed journal suffixes in the telemetry trace. *)

val entry_to_string : entry -> string

val entries_of_string : string -> (entry list, string) result
(** Parse a journal body.  A torn final entry (the classic crash-while-
    appending artifact) is dropped rather than rejected: everything before
    it was written completely and remains replayable.  The tail may be
    torn at {e any} byte — a trailing fragment with no final newline is
    discarded outright, never parsed, so a truncated value line cannot be
    recovered as a silently corrupted field.  Only a final entry that
    runs out of lines is torn: a malformed entry, or a complete line
    holding a value its description refuses (an out-of-range task spec,
    an unknown task kind, a sub-filter layout {!Dream_traffic.Topology}
    cannot make), yields [Error] with its line wherever it sits, the
    final entry included.  It never raises. *)

(** {1 Sinks} *)

type sink
(** An append-only destination.  The in-memory entry list is always
    maintained (recovery replays from it); a file-backed sink additionally
    appends each entry to disk and flushes, so the journal survives the
    process. *)

val memory : unit -> sink

val file : string -> sink
(** Opens (and truncates) [path] for appending.
    @raise Sys_error if the file cannot be opened. *)

val append : sink -> entry -> unit

val entries : sink -> entry list
(** All entries appended since the last {!truncate}, in append order. *)

val length : sink -> int

val flush : sink -> unit
(** Force buffered bytes of a file sink to the OS.  {!append} already
    flushes per entry; the controller additionally calls this at every
    checkpoint boundary so the on-disk journal can never trail the sealed
    snapshot even if the per-append flush discipline is ever relaxed.
    No-op for memory sinks. *)

val truncate : sink -> unit
(** Discard all entries — called right after a checkpoint is sealed, since
    recovery only ever needs the suffix after the last snapshot. *)

val close : sink -> unit
(** Flush and release the file handle.  Idempotent: closing twice is a
    no-op.  Any other operation on a closed sink raises
    [Invalid_argument] — a journal that silently dropped appends after
    close would be a torn tail the recovery path could never see. *)
