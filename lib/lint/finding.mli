(** One static-analysis finding: a rule violation at a source location.

    Findings are plain data so reporters ({!Report}), the engine's
    suppression pass and the test suite can all share them.  The JSON
    description is a {!Dream_util.Codec} one, written through
    {!Dream_obs.Json} like the telemetry exporters', so CI can parse the
    report with the machinery the repo already trusts. *)

type severity = Error | Warning

type t = {
  rule : string;  (** rule id, e.g. ["determinism-random"] *)
  file : string;  (** path as given to the linter *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  severity : severity;
  message : string;
}

val v :
  rule:string -> file:string -> line:int -> col:int -> severity:severity -> string -> t

val compare : t -> t -> int
(** Order by file, then line, column, rule id and message: a total order,
    so reports are stable regardless of rule-evaluation order, even when
    two findings share a position. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: severity [rule] message] — one line, compiler-style,
    so editors and CI annotations can parse it. *)

val json : t Dream_util.Codec.t
(** One finding as a JSON object, written and read by this one
    description. *)
