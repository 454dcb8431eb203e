(** Whole-repo, deterministic intra-repo call graph over parsetrees.

    Nodes are top-level value bindings (including bindings inside named
    top-level submodules, tracked as ["Sub.f"]); an edge [a -> b] exists
    when [a]'s body mentions an identifier that resolves to [b].
    Mentioning is enough — a function passed as an argument is an edge,
    which is the conservative direction for reachability analyses: a
    first-class use can always end in a call.

    Resolution is purely syntactic and module-qualified: [f] resolves in
    the defining file, [M.f] through the repo-wide module index (every
    file [m.ml] declares module [M]; ambiguous module names resolve to
    every candidate), [Dream_lib.M.f] and [Dream_lib.M.Sub.f] through the
    library prefix (maps to [lib/lib/m.ml]), and module aliases
    ([module O = Dream_obs], [let module C = M in]) are expanded one
    step.  One walker resolves every identifier of a file in its lexical
    scope, for the edges, {!mentions} and {!arity_of} alike: opens ([open M],
    [let open M in], [M.( … )]) add candidates within their scope, and a
    name bound by an enclosing [let], [fun], [function], [match] or
    [for] hides the top-level binding of that name (a local [let emit]
    is not a call of the file's [emit]).  What cannot be resolved —
    functor applications, [Lapply], computed functions — contributes no
    edge; the analysis documents that loophole rather than guessing.

    Entry points are bindings carrying a [[@hot]] (or [[@@hot]])
    attribute.  {!reachable_from_hot} is a breadth-first closure from the
    sorted entry set, each node paired with one witness call chain, so a
    finding can say {e how} the hot loop reaches the allocation. *)

type node = {
  n_file : string;  (** path as given to {!build} *)
  n_module : string;  (** file-level module name, e.g. ["Controller"] *)
  n_name : string;  (** binding name, possibly ["Sub.f"] for submodule bindings *)
  n_loc : Location.t;
  n_hot : bool;  (** carries a [[@hot]] attribute *)
  n_arity : int;  (** syntactic arity: leading [fun]/[function] parameters *)
  n_binding : Parsetree.value_binding;
}

type t

val build : (string * Parsetree.structure) list -> t
(** Build the graph from [(path, parsetree)] pairs; order-insensitive
    (internal order is sorted by path). *)

val reachable_from_hot : t -> (node * string list) list
(** Breadth-first closure from the [[@hot]] entry set (sorted by file and
    name).  Each reachable node comes with a witness chain of
    ["Module.name"] labels, entry point first and the node itself last;
    the chain is deterministic (BFS over sorted nodes and sorted successor
    lists).  Includes the roots themselves (singleton chains). *)

val find : t -> file:string -> string -> node option
(** The node for a binding name (["f"] or ["Sub.f"]) in [file]. *)

val mentions : t -> file:string -> node list
(** Every node that some identifier anywhere in [file]'s structure
    resolves to, sorted: the same resolution as the edges, over top-level
    binding bodies, [let () = …] bodies and nested modules alike. *)

val label : node -> string
(** ["Module.name"], the spelling used in chains and findings. *)

val arity_of : t -> Parsetree.expression -> int option
(** The arity of the function an identifier expression names, as the
    walker resolved it in its scope: [Some arity] when it names exactly
    one known function of non-zero arity, [None] on ambiguity, unknowns,
    local bindings and anything not an identifier (callers must treat
    [None] as "assume saturated"). *)

(** {2 Parsetree helpers shared with the engine's passes} *)

val qualified : Longident.t -> string list
(** Flatten a [Longident.t], stripping a leading [Stdlib]; [[]] for
    [Lapply].  The one longident flattening of the linter: the per-file
    rules, the allocation classifier and the engine's passes use it. *)

val ident_path : Parsetree.expression -> string list option
(** {!qualified} of an identifier expression; [None] for anything else. *)

val top_bindings : Parsetree.structure -> (string * Parsetree.value_binding) list
(** Top-level value bindings in declaration order, descending into named
    top-level submodules with dotted names (["Sub.f"]). *)

val arity_of_expr : Parsetree.expression -> int
(** Syntactic arity: the leading [fun]/[function] parameter spine. *)
