(** Expression-level allocation classifier for the [hot-path-alloc] pass.

    Purely syntactic: an expression is classified by what it {e spells},
    not by what flambda may later unbox — so the classifier is
    deterministic across compiler flags and errs on the side of
    reporting.  The classes mirror where the zero-alloc work found words
    going: structural constructors (tuples, records, variants with
    payloads, list/array literals), closures and partial applications,
    append-style builders ([@], [^], [List.append], [String.concat] and
    friends), boxed-float producers (the [+.] family, [float_of_int]),
    [Printf]/[Format] calls, and a curated list of allocating stdlib
    entry points ([List.map], [Array.make], [Hashtbl.create], ...). *)

type t =
  | Tuple
  | Record
  | Variant of string  (** constructor applied to a payload, e.g. ["Some"] *)
  | List_literal  (** a [::] spine; reported once at the head cons *)
  | Array_literal
  | Closure  (** [fun]/[function] nested inside a body *)
  | Partial_app of string  (** under-saturated call to a known intra-repo function *)
  | Append of string  (** [@], [^], [List.append], [String.concat], ... *)
  | Boxed_float of string  (** [+.]-family result, [float_of_int], ... *)
  | Format_call of string  (** any [Printf.*] / [Format.*] application *)
  | Alloc_fn of string  (** known allocating stdlib function *)

val describe : t -> string
(** One-clause human description, e.g.
    ["tuple construction"] or ["partial application of Task.configure"]. *)

val classify :
  arity_of:(Parsetree.expression -> int option) -> Parsetree.expression -> t option
(** Classify one expression node ([None] = does not allocate, as far as
    syntax can tell).  [arity_of] gives the arity of the intra-repo
    function an application's head names, for partial-application
    detection; [None] means "assume saturated".  The caller owns traversal — [classify] never
    recurses, so a [::] spine classifies at every cons and the caller
    deduplicates (see {!cons_tail}). *)

val cons_tail : Parsetree.expression -> Parsetree.expression option
(** The tail expression of a [::] application, for spine deduplication:
    the caller marks it visited so a list literal reports once. *)
