(** The rule registry: every invariant [dream-lint] enforces.

    A rule is a set of syntactic hooks over the OCaml parsetree plus a
    directory policy.  Rules are purely syntactic — they see names, not
    types — so each one errs on the side of precision: it flags the
    spellings that appear in this codebase and documents its loopholes
    (module aliases, [open]) rather than guessing at types.

    Directory policies are expressed over path components, so
    [lib/core/controller.ml], [./lib/core/controller.ml] and
    [/abs/repo/lib/core/controller.ml] are all "in [lib/]".  Blessed
    files ([lib/util/rng.ml], [lib/obs/clock.ml]) are not hard-coded
    here: they carry [[@lint.allow "rule-id"]] attributes, so the
    exemption is visible — and auditable — at the site itself. *)

type emit = loc:Location.t -> string -> unit
(** Rules report through [emit]; the engine fills in rule id, severity
    and file, and runs the suppression pass afterwards. *)

type t = {
  id : string;
  doc : string;  (** one-line description for [--help] and reports *)
  severity : Finding.severity;
  applies : string -> bool;  (** path policy, over the path as given *)
  expr : (emit:emit -> Parsetree.expression -> unit) option;
      (** called on every expression in scope *)
  module_expr : (emit:emit -> Parsetree.module_expr -> unit) option;
      (** called on every module expression (catches [open M], [module X = M]) *)
  file : (emit:emit -> path:string -> Parsetree.structure -> unit) option;
      (** called once per file, for whole-file checks like mli coverage *)
}

val all : t list
(** Every registered rule, in report order. *)

val hot_path_alloc_id : string
(** ["hot-path-alloc"] — allocation sites reachable from a [[@hot]] entry
    point.  Declared here (severity, policy, docs) but computed by the
    interprocedural layer in {!Engine.lint_sources}.  Its allow is
    [[@alloc.allow "reason"]], which gives a reason in place of the rule
    id; [[@lint.allow "hot-path-alloc"]] is refused. *)

val domain_safety_id : string
(** ["domain-safety"] — toplevel mutable state in [lib/].  Declared here,
    computed by the interprocedural layer. *)

val test_only_export_id : string
(** ["test-only-export"] — a [val] in a [lib/] [.mli] that nothing
    outside its own module mentions except [test/].  Declared here,
    computed by the interprocedural layer. *)

val test_only_export_reasons : string list
(** The reasons a [test-only-export] allow may give in place of the rule
    id: ["oracle hook"] and ["test fake"], each followed by [": "] and the
    [test/] file that uses the value. *)

val find : string -> t option
(** Look up a rule by id. *)

val ids : string list

val in_test : string -> bool
