open Parsetree

type emit = loc:Location.t -> string -> unit

type t = {
  id : string;
  doc : string;
  severity : Finding.severity;
  applies : string -> bool;
  expr : (emit:emit -> Parsetree.expression -> unit) option;
  module_expr : (emit:emit -> Parsetree.module_expr -> unit) option;
  file : (emit:emit -> path:string -> Parsetree.structure -> unit) option;
}

let rule ?expr ?module_expr ?file id ~doc ~severity ~applies =
  { id; doc; severity; applies; expr; module_expr; file }

(* ---- path policies ---- *)

let components path =
  List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' path)

let in_lib path = List.mem "lib" (components path)
let in_test path = List.mem "test" (components path)
let everywhere _ = true

(* ---- determinism: randomness ---- *)

let determinism_random =
  let check_expr ~emit e =
    match Callgraph.ident_path e with
    | Some ("Random" :: _ as path) ->
      emit ~loc:e.pexp_loc
        (Printf.sprintf
           "%s: all randomness must flow through the seeded Dream_util.Rng (lib/util/rng.ml)"
           (String.concat "." path))
    | _ -> ()
  in
  let check_module ~emit m =
    match m.pmod_desc with
    | Pmod_ident { txt; _ } when Callgraph.qualified txt = [ "Random" ] ->
      emit ~loc:m.pmod_loc
        "aliasing or opening Random: all randomness must flow through Dream_util.Rng"
    | _ -> ()
  in
  rule "determinism-random" ~severity:Finding.Error ~applies:everywhere
    ~doc:"no Stdlib.Random: randomness flows through the seeded Dream_util.Rng"
    ~expr:check_expr ~module_expr:check_module

(* ---- determinism: wall clock ---- *)

let clock_reads = [ [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ] ]

let determinism_clock =
  let check_expr ~emit e =
    match Callgraph.ident_path e with
    | Some path when List.mem path clock_reads ->
      emit ~loc:e.pexp_loc
        (Printf.sprintf
           "%s: wall-clock reads must go through Dream_obs.Clock so runs stay deterministic"
           (String.concat "." path))
    | _ -> ()
  in
  rule "determinism-clock" ~severity:Finding.Error ~applies:everywhere
    ~doc:"no direct wall-clock reads: time flows through Dream_obs.Clock" ~expr:check_expr

(* ---- determinism: GC statistics ---- *)

(* GC counters are as nondeterministic as the wall clock: they move with
   allocation noise from the runtime itself.  Profiling reads them
   through Dream_obs.Gc_stats so tests can substitute a manual source. *)
let determinism_gc =
  let check_expr ~emit e =
    match Callgraph.ident_path e with
    | Some ("Gc" :: _ as path) ->
      emit ~loc:e.pexp_loc
        (Printf.sprintf
           "%s: GC statistics must flow through Dream_obs.Gc_stats so profiling stays mockable"
           (String.concat "." path))
    | _ -> ()
  in
  let check_module ~emit m =
    match m.pmod_desc with
    | Pmod_ident { txt; _ } when Callgraph.qualified txt = [ "Gc" ] ->
      emit ~loc:m.pmod_loc
        "aliasing or opening Gc: GC statistics must flow through Dream_obs.Gc_stats"
    | _ -> ()
  in
  rule "determinism-gc" ~severity:Finding.Error ~applies:everywhere
    ~doc:"no direct Gc reads: GC statistics flow through Dream_obs.Gc_stats"
    ~expr:check_expr ~module_expr:check_module

(* ---- float equality ---- *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]
let float_makers = [ "float_of_int"; "Float.of_int" ]

(* Syntactically float: a float literal, an application of a float
   arithmetic operator or int->float conversion, or a [: float]
   annotation.  Purely syntactic — identifiers of float type are not
   recognised — so the rule has no false positives by construction. *)
let rec is_floaty e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []); _ })
    -> true
  | Pexp_apply (f, _) -> (
    match Callgraph.ident_path f with
    | Some path ->
      let name = String.concat "." path in
      List.mem name float_ops || List.mem name float_makers
    | None -> false)
  | Pexp_open (_, e') | Pexp_sequence (_, e') -> is_floaty e'
  | _ -> false

let float_equality =
  let eq_ops = [ "="; "<>"; "compare" ] in
  let check_expr ~emit e =
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      match Callgraph.ident_path f with
      | Some [ op ] when List.mem op eq_ops ->
        if List.exists (fun (_, arg) -> is_floaty arg) args then
          emit ~loc:e.pexp_loc
            (Printf.sprintf
               "(%s) on a float operand: exact float equality is fragile; compare within \
                an epsilon (Float.abs (a -. b) <= eps) or use an ordering comparison"
               op)
      | _ -> ())
    | _ -> ()
  in
  rule "float-equality" ~severity:Finding.Error
    ~applies:(fun path -> not (in_test path))
    ~doc:"no =, <> or polymorphic compare on syntactically-float operands" ~expr:check_expr

(* ---- exception hygiene ---- *)

let exception_hygiene =
  let catch_all case =
    match (case.pc_lhs.ppat_desc, case.pc_guard) with
    | Ppat_any, None -> true
    | Ppat_exception { ppat_desc = Ppat_any; _ }, None -> true
    | _ -> false
  in
  let check_expr ~emit e =
    match e.pexp_desc with
    | Pexp_try (_, cases) ->
      List.iter
        (fun case ->
          if catch_all case then
            emit ~loc:case.pc_lhs.ppat_loc
              "catch-all `with _ ->' silently discards the exception; match the exceptions \
               you expect, or bind the exception and report it")
        cases
    | Pexp_match (_, cases) ->
      List.iter
        (fun case ->
          match case.pc_lhs.ppat_desc with
          | Ppat_exception { ppat_desc = Ppat_any; _ } when case.pc_guard = None ->
            emit ~loc:case.pc_lhs.ppat_loc
              "catch-all `exception _ ->' silently discards the exception; match the \
               exceptions you expect, or bind the exception and report it"
          | _ -> ())
        cases
    | _ -> ()
  in
  rule "exception-hygiene" ~severity:Finding.Error ~applies:in_lib
    ~doc:"no catch-all exception handlers that discard the exception in lib/"
    ~expr:check_expr

(* ---- partiality ---- *)

let partial_accessors =
  [ [ "List"; "hd" ]; [ "List"; "tl" ]; [ "List"; "nth" ]; [ "Option"; "get" ] ]

let partiality =
  let check_expr ~emit e =
    match Callgraph.ident_path e with
    | Some path when List.mem path partial_accessors ->
      emit ~loc:e.pexp_loc
        (Printf.sprintf "%s raises on empty input; handle the empty case explicitly"
           (String.concat "." path))
    | _ -> ()
  in
  rule "partiality" ~severity:Finding.Warning ~applies:in_lib
    ~doc:"no Failure-raising accessors (List.hd/tl/nth, Option.get) in lib/"
    ~expr:check_expr

(* ---- stdout hygiene ---- *)

let stdout_writers =
  [
    [ "print_endline" ];
    [ "print_string" ];
    [ "print_char" ];
    [ "print_bytes" ];
    [ "print_int" ];
    [ "print_float" ];
    [ "print_newline" ];
    [ "Printf"; "printf" ];
    [ "Format"; "printf" ];
    [ "Format"; "print_string" ];
    [ "Format"; "print_int" ];
    [ "Format"; "print_float" ];
    [ "Format"; "print_newline" ];
    [ "Format"; "print_cut" ];
    [ "Format"; "print_space" ];
  ]

let stdout_hygiene =
  let check_expr ~emit e =
    match Callgraph.ident_path e with
    | Some path when List.mem path stdout_writers ->
      emit ~loc:e.pexp_loc
        (Printf.sprintf
           "%s writes to stdout from library code; use Format on an explicit formatter \
            (e.g. Table.out) or the Obs exporters"
           (String.concat "." path))
    | _ -> ()
  in
  rule "stdout-hygiene" ~severity:Finding.Warning ~applies:in_lib
    ~doc:"no implicit stdout printing in lib/; output goes through an explicit formatter"
    ~expr:check_expr

(* ---- mli coverage ---- *)

let mli_coverage =
  let check_file ~emit ~path _structure =
    (* Only meaningful for sources that exist on disk: in-memory sources
       (Engine.lint_string with a synthetic path) have no sibling to find. *)
    if
      Filename.check_suffix path ".ml"
      && Sys.file_exists path
      && not (Sys.file_exists (path ^ "i"))
    then
      let pos = { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
      emit
        ~loc:{ Location.loc_start = pos; loc_end = pos; loc_ghost = true }
        (Printf.sprintf "missing interface %si: every lib/ module declares its API in a .mli"
           path)
  in
  rule "mli-coverage" ~severity:Finding.Warning ~applies:in_lib
    ~doc:"every lib/**/*.ml has a sibling .mli" ~file:check_file

(* ---- interprocedural passes ----

   These three rules have no per-file hooks: their findings come from the
   whole-repo layer in {!Engine.lint_sources} (call graph + allocation
   classifier, the toplevel-mutable-state scan, and the call graph's
   mentions against each interface) and meet the same suppression pass
   as every other finding.  They are registered here so [--rules]
   selection, [--help], severity, directory policy and the allow checks
   treat them like any other rule. *)

let hot_path_alloc_id = "hot-path-alloc"
let domain_safety_id = "domain-safety"
let test_only_export_id = "test-only-export"
let test_only_export_reasons = [ "oracle hook"; "test fake" ]

let hot_path_alloc =
  rule hot_path_alloc_id ~severity:Finding.Error ~applies:everywhere
    ~doc:
      "no allocation site reachable from a [@hot] entry point (interprocedural; allow a \
       justified site with [@alloc.allow \"reason\"], its one allow spelling)"

let domain_safety =
  rule domain_safety_id ~severity:Finding.Warning ~applies:in_lib
    ~doc:
      "no toplevel mutable state in lib/: every ref/Hashtbl/Buffer/mutable-record/array \
       binding at module level is a latent race once shard controllers fan out across \
       domains"

let test_only_export =
  rule test_only_export_id ~severity:Finding.Warning ~applies:in_lib
    ~doc:
      "every val in a lib/ .mli is mentioned outside its module by a program path \
       (lib, bin, bench, examples, perfbench), not only by test/; keep a reference or \
       substitution interface with [@@lint.allow \"oracle hook: test/<file>\"] or \
       [@@lint.allow \"test fake: test/<file>\"]"

let all =
  [
    determinism_random;
    determinism_clock;
    determinism_gc;
    float_equality;
    exception_hygiene;
    partiality;
    stdout_hygiene;
    mli_coverage;
    hot_path_alloc;
    domain_safety;
    test_only_export;
  ]

let find id = List.find_opt (fun r -> r.id = id) all
let ids = List.map (fun r -> r.id) all
