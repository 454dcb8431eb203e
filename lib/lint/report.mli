(** Reporters over a finding list.  Both write to an explicit formatter,
    so the library never touches stdout on its own.

    [?baseline] is the [(baselined, new)] pair from the ratchet gate
    (counts of findings covered vs. not covered by the committed
    {!Baseline}); when given, both renderers append it to the summary. *)

val text : ?baseline:int * int -> Format.formatter -> Finding.t list -> unit
(** One compiler-style line per finding, then a summary line
    ([N findings (E errors, W warnings)] or [no findings]) and the
    per-rule counts. *)

val json : ?baseline:int * int -> Format.formatter -> Finding.t list -> unit
(** A single JSON object [{"version": 2, "count": N, "errors": E,
    "warnings": W, "by_rule": {...}, "findings": [...]}] rendered
    through {!Dream_obs.Json}, newline-terminated.  The findings are
    written by {!Finding.json}, which reads them back; the summary counts
    are only ever written. *)
