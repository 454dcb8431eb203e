(** The growable arrays of one task, recycled across admissions.

    What a task keeps between epochs grows by doubling from empty: its
    counter table, report buffers, ground-truth buffers and read
    buffers.  A controller sees tasks arrive and retire all the time, so
    when a task retires its storage is handed back ({!Task.release}) and
    the next task with the same sub-filter count is built on it: it
    starts with the room its predecessor grew.  Scratch that no task
    keeps between epochs is not here: divide-and-merge's tables live in
    one {!Divide_merge} workspace that every task's configure shares.

    The owners take what they need at creation and reset only their
    logical state (counts, cursors, stamps); they never read a capacity
    or a value they did not write, so a task built on recycled storage
    behaves bit for bit like one built on {!create}'s.  A storage value belongs
    to one live task at a time: once handed back, the task that held it
    must not be used again.

    The fields are open so that the owners move their columns in and out
    without a call per column, and so that a test can fill recycled
    storage with garbage. *)

type t = {
  (* {!Monitor}'s columns: [cap] slots in each, [cap * k] in [vols] *)
  mutable cap : int;
  mutable keys : Bytes.t;
  mutable masks : Bytes.t;
  mutable flags : Bytes.t;
  mutable stamps : Bytes.t;
  mutable totals : float array;
  mutable scores : float array;
  mutable means : float array;
  mutable vols : float array;
  report : Items.t;  (** an HH or CD task's report *)
  detections : Items.t;  (** an HHH task's report, with values *)
  leaves : Items.t;  (** {!Ground_truth}'s buffers *)
  truth : Items.t;
  truth_means : Items.t;
  truth_next : Items.t;
  mutable read_keys : int array;  (** {!Task.read_traffic}'s buffer pair *)
  mutable read_vols : float array;
}

val create : unit -> t
(** Storage with no room: every owner grows its columns from empty. *)
