(** The rule engine, two layers deep.

    {b Per-file layer}: parse one OCaml implementation, run every
    applicable rule's hooks over the parsetree in a single
    {!Ast_iterator} pass, then run the one suppression pass over the
    file's findings — its own and those the interprocedural layer filed
    against it.

    {b Interprocedural layer} ({!lint_sources} / {!lint_files}): parse
    the whole file set once, build the {!Callgraph}, and run the three
    repo-level passes; each returns findings that enter the per-file
    layer of the file they are in, so every finding meets the same
    allows:

    - [hot-path-alloc]: every allocation site (classified by
      {!Alloc_class}) inside a binding reachable from a [[@hot]] entry
      point is reported with its witness call chain.  Its allow is
      [[@alloc.allow "reason"]] on the expression or binding — the
      payload is a human reason, not a rule id; [[@lint.allow
      "hot-path-alloc"]] is refused as malformed, so there is one
      spelling.
    - [domain-safety]: toplevel mutable state in [lib/] ([ref],
      [Hashtbl.create], [Buffer.create], arrays, records with fields
      declared [mutable] anywhere in the repo) is reported as a latent
      race ahead of the planned [Domain] fan-out, with a count of the
      sibling top-level bindings that touch it.  Suppression is the
      ordinary [[@lint.allow "domain-safety"]].
    - [test-only-export]: a [val] of a [lib/] [.mli] that no file outside
      its own module mentions except under [test/] (or that nothing
      outside mentions at all) is reported at its [.ml] binding.
      Mentions are {!Callgraph.mentions}, so the verdict holds for the
      file set given: lint the whole tree.  A value kept for the tests
      gives its reason in place of the rule id and names the test file:
      [[@@lint.allow "oracle hook: test/<file>"]] for an interface a test
      oracle reaches into (a reference implementation, a differential
      test, a read-back of state the program never reads), or
      [[@@lint.allow "test fake: test/<file>"]] for a substitute the
      tests plug in.  The bare rule id, or a reason naming no [test/]
      file, is a malformed allow.

    Allow semantics, one registry for every rule:
    - [[@lint.allow "r"]] (or [[@alloc.allow "reason"]] for
      [hot-path-alloc]) on an expression, or [[@@lint.allow "r"]] on a
      [let] binding, silences rule [r] within that node's source range.
    - A floating [[@@@lint.allow "r"]] silences rule [r] for the whole
      file.  File-level allows are policy declarations and may
      legitimately match nothing.
    - Every site-level allow must silence at least one finding of a rule
      that ran on the file; otherwise the engine reports it under
      {!unused_suppression_rule}, as it does for unknown rule names and
      malformed payloads.  An [[@alloc.allow]] is read only when
      [hot-path-alloc] runs.

    Two engine-level ids appear in findings in addition to {!Rules.ids}:
    [parse-error] (the file does not parse; linting cannot proceed) and
    [unused-suppression]. *)

val parse_error_rule : string
val unused_suppression_rule : string

val lint_sources : ?rules:Rules.t list -> (string * string) list -> Finding.t list
(** The full two-layer analysis over an in-memory file set of
    [(path, source)] pairs: per-file rules plus [hot-path-alloc],
    [domain-safety] and [test-only-export] (each only when present in
    [rules]).  [.mli] pairs are interfaces: parsed for
    [test-only-export], not linted themselves.  [rules] defaults to
    {!Rules.all}.  Deterministic: the same sources in any order produce
    the same sorted findings. *)

val lint_files : ?rules:Rules.t list -> string list -> Finding.t list
(** {!lint_sources} over [.ml] files read from disk, each with its
    sibling [.mli] when there is one; unreadable files become
    [parse-error] findings. *)

val ml_files_under : string -> string list
(** Deterministic recursive walk: all [.ml] files under a path, sorted
    at every directory level, with [_build], [_opam] and dot-entries
    skipped.  A non-directory [.ml] path yields itself; anything else
    yields []. *)
