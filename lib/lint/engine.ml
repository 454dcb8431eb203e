open Parsetree

let parse_error_rule = "parse-error"
let unused_suppression_rule = "unused-suppression"

type suppression = {
  s_attr : string;  (* the attribute's name, ["lint.allow"] or ["alloc.allow"] *)
  s_rule : string;
  s_region : Location.t;
  s_attr_loc : Location.t;
  s_file_level : bool;
  mutable s_used : bool;
}

let position_of loc =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Inclusive containment of a point in a node's source range. *)
let within region (line, col) =
  let s = region.Location.loc_start and e = region.Location.loc_end in
  let after_start =
    line > s.Lexing.pos_lnum
    || (line = s.Lexing.pos_lnum && col >= s.Lexing.pos_cnum - s.Lexing.pos_bol)
  in
  let before_end =
    line < e.Lexing.pos_lnum
    || (line = e.Lexing.pos_lnum && col <= e.Lexing.pos_cnum - e.Lexing.pos_bol)
  in
  after_start && before_end

let string_payload attr =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Ok s
  | _ -> Error "expected a string literal"

(* The rule an allow silences, or why the allow is malformed.  Two rules
   take a reason in place of the rule id, so every exception says why:
   [hot-path-alloc] is allowed with [[@alloc.allow "reason"]] alone, and a
   [test-only-export] allow reads ["oracle hook: test/<file>"] or
   ["test fake: test/<file>"], naming the test that uses the export. *)
let allowed_rule attr =
  match (attr.attr_name.Location.txt, string_payload attr) with
  | "alloc.allow", Ok reason when String.trim reason <> "" -> Ok Rules.hot_path_alloc_id
  | "alloc.allow", _ ->
    Error
      "expected a non-empty reason string, as in [@alloc.allow \"tuple is the public API\"]"
  | _, Error _ -> Error "expected a string literal rule id, as in [@lint.allow \"rule-id\"]"
  | _, Ok payload -> (
    match String.index_opt payload ':' with
    | Some i when List.mem (String.sub payload 0 i) Rules.test_only_export_reasons ->
      let user = String.trim (String.sub payload (i + 1) (String.length payload - i - 1)) in
      if String.starts_with ~prefix:"test/" user then Ok Rules.test_only_export_id
      else Error (Printf.sprintf "%S must name the test/ file that uses the value" payload)
    | _ when payload = Rules.test_only_export_id ->
      Error
        "a test-only-export allow gives its reason, as in [@@lint.allow \"oracle hook: \
         test/<file>\"]"
    | _ when payload = Rules.hot_path_alloc_id ->
      Error "a hot-path-alloc allow gives its reason, as in [@alloc.allow \"reason\"]"
    | _ -> Ok payload)

let finding_at ~rule ~file ~severity loc message =
  let line, col = position_of loc in
  Finding.v ~rule ~file ~line ~col ~severity message

let parse parser path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  match parser lexbuf with
  | structure -> Ok structure
  | exception Syntaxerr.Error err ->
    Error (Syntaxerr.location_of_error err, "syntax error")
  | exception Lexer.Error (_, loc) -> Error (loc, "lexing error")
  | exception exn -> Error (Location.in_file path, "cannot parse: " ^ Printexc.to_string exn)

(* ---- the per-file layer: syntactic rules plus the one suppression pass ---- *)

(* [extra] carries this file's findings from the interprocedural passes,
   so every finding meets the same allows. *)
let lint_parsed ~extra ~rules ~path structure =
  let active = List.filter (fun (r : Rules.t) -> r.Rules.applies path) rules in
  let active_ids = List.map (fun (r : Rules.t) -> r.Rules.id) active in
  let findings = ref extra in
  let suppressions = ref [] in
  let meta ~loc message =
    findings :=
      finding_at ~rule:unused_suppression_rule ~file:path ~severity:Finding.Warning loc
        message
      :: !findings
  in
  let emit_for (r : Rules.t) ~loc message =
    findings :=
      finding_at ~rule:r.Rules.id ~file:path ~severity:r.Rules.severity loc message
      :: !findings
  in
  (* An [@alloc.allow] counts only where hot-path-alloc runs. *)
  let is_allow name =
    name = "lint.allow"
    || (name = "alloc.allow" && List.mem Rules.hot_path_alloc_id active_ids)
  in
  let register ~file_level ~region attrs =
    List.iter
      (fun attr ->
        let name = attr.attr_name.Location.txt in
        if is_allow name then
          match allowed_rule attr with
          | Error msg -> meta ~loc:attr.attr_loc (Printf.sprintf "malformed [@%s]: %s" name msg)
          | Ok rule when not (List.mem rule Rules.ids) ->
            meta ~loc:attr.attr_loc
              (Printf.sprintf "[@lint.allow %S] names an unknown rule" rule)
          | Ok rule ->
            suppressions :=
              {
                s_attr = name;
                s_rule = rule;
                s_region = region;
                s_attr_loc = attr.attr_loc;
                s_file_level = file_level;
                s_used = false;
              }
              :: !suppressions)
      attrs
  in
  let expr_rules = List.filter (fun (r : Rules.t) -> r.Rules.expr <> None) active in
  let mod_rules = List.filter (fun (r : Rules.t) -> r.Rules.module_expr <> None) active in
  let default = Ast_iterator.default_iterator in
  let iterator =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          register ~file_level:false ~region:e.pexp_loc e.pexp_attributes;
          List.iter
            (fun (r : Rules.t) ->
              match r.Rules.expr with Some hook -> hook ~emit:(emit_for r) e | None -> ())
            expr_rules;
          default.Ast_iterator.expr it e);
      Ast_iterator.module_expr =
        (fun it m ->
          List.iter
            (fun (r : Rules.t) ->
              match r.Rules.module_expr with
              | Some hook -> hook ~emit:(emit_for r) m
              | None -> ())
            mod_rules;
          default.Ast_iterator.module_expr it m);
      Ast_iterator.value_binding =
        (fun it vb ->
          register ~file_level:false ~region:vb.pvb_loc vb.pvb_attributes;
          default.Ast_iterator.value_binding it vb);
      Ast_iterator.structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_attribute attr when attr.attr_name.Location.txt = "lint.allow" ->
            register ~file_level:true ~region:si.pstr_loc [ attr ]
          (* A file-wide hot-path-alloc allow would let one line silence
             a whole hot file, so a floating one is refused, not read. *)
          | Pstr_attribute attr when attr.attr_name.Location.txt = "alloc.allow" ->
            if is_allow "alloc.allow" then
              meta ~loc:attr.attr_loc
                "malformed [@@@alloc.allow]: [@alloc.allow \"reason\"] sits on the allocating \
                 expression or binding, not on the file"
          | _ -> ());
          default.Ast_iterator.structure_item it si);
    }
  in
  iterator.Ast_iterator.structure iterator structure;
  List.iter
    (fun (r : Rules.t) ->
      match r.Rules.file with
      | Some hook -> hook ~emit:(emit_for r) ~path structure
      | None -> ())
    active;
  (* Suppression pass: a finding survives unless an allow for its rule
     covers its position; every allow that fires is marked used. *)
  let suppressed (f : Finding.t) =
    let matching =
      List.filter
        (fun s ->
          s.s_rule = f.Finding.rule
          && (s.s_file_level || within s.s_region (f.Finding.line, f.Finding.col)))
        !suppressions
    in
    List.iter (fun s -> s.s_used <- true) matching;
    matching <> []
  in
  let kept = List.filter (fun f -> not (suppressed f)) !findings in
  let unused =
    List.filter_map
      (fun s ->
        (* Only site-level allows must pay their way, and only when the
           rule they name actually ran on this file. *)
        if s.s_used || s.s_file_level || not (List.mem s.s_rule active_ids) then None
        else
          Some
            (finding_at ~rule:unused_suppression_rule ~file:path ~severity:Finding.Warning
               s.s_attr_loc
               (if s.s_attr = "alloc.allow" then
                  "[@alloc.allow] suppresses nothing (site not allocating, or no longer \
                   reachable from a [@hot] entry); remove it"
                else Printf.sprintf "[@lint.allow %S] suppresses nothing; remove it" s.s_rule)))
      !suppressions
  in
  List.sort Finding.compare (kept @ unused)

(* ---- interprocedural pass: domain-safety ---- *)

(* Field names declared [mutable] anywhere in the repo: a toplevel record
   literal touching one of them is mutable module state even when the
   type lives in another file. *)
let mutable_field_names parsed =
  let set = Hashtbl.create 32 in
  List.iter
    (fun (_, structure) ->
      let default = Ast_iterator.default_iterator in
      let it =
        {
          default with
          Ast_iterator.type_declaration =
            (fun it td ->
              (match td.ptype_kind with
              | Ptype_record labels ->
                List.iter
                  (fun l ->
                    if l.pld_mutable = Asttypes.Mutable then
                      Hashtbl.replace set l.pld_name.Location.txt ())
                  labels
              | _ -> ());
              default.Ast_iterator.type_declaration it td);
        }
      in
      it.Ast_iterator.structure it structure)
    parsed;
  set

let rec result_expr e =
  match e.pexp_desc with
  | Pexp_constraint (e', _)
  | Pexp_open (_, e')
  | Pexp_sequence (_, e')
  | Pexp_let (_, _, e') ->
    result_expr e'
  | _ -> e

let last_segment name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

(* What kind of mutable state does this toplevel value create?  [Atomic]
   is deliberately absent: atomics are the domain-safe primitive the
   finding suggests migrating to. *)
let mutable_kind ~mut_fields e =
  let e = result_expr e in
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
    match Callgraph.ident_path f with
    | Some [ "ref" ] -> Some "ref cell"
    | Some [ "Hashtbl"; ("create" | "copy" | "of_seq") ] -> Some "Hashtbl"
    | Some [ "Buffer"; "create" ] -> Some "Buffer"
    | Some [ "Queue"; "create" ] -> Some "Queue"
    | Some [ "Stack"; "create" ] -> Some "Stack"
    | Some [ "Array"; ("make" | "init" | "create_float" | "make_matrix" | "copy" | "of_list") ]
      ->
      Some "array"
    | Some [ "Bytes"; ("create" | "make" | "init" | "of_string") ] -> Some "mutable bytes"
    | Some ("Bigarray" :: _) -> Some "Bigarray"
    | _ -> None)
  | Pexp_array (_ :: _) -> Some "array"
  | Pexp_record (fields, _)
    when List.exists
           (fun (({ txt; _ } : Longident.t Location.loc), _) ->
             match List.rev (Callgraph.qualified txt) with
             | [] -> false
             | field :: _ -> Hashtbl.mem mut_fields field)
           fields ->
    Some "record with mutable fields"
  | _ -> None

let mentions_ident name e =
  let found = ref false in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          (match Callgraph.ident_path e with
          | Some parts -> (
            match List.rev parts with
            | leaf :: _ when leaf = name -> found := true
            | _ -> ())
          | None -> ());
          if not !found then default.Ast_iterator.expr it e);
    }
  in
  it.Ast_iterator.expr it e;
  !found

let domain_safety_findings ~severity parsed =
  let mut_fields = mutable_field_names parsed in
  List.concat_map
    (fun (path, structure) ->
      let bindings = Callgraph.top_bindings structure in
      List.filter_map
        (fun (name, vb) ->
          (* Functions construct per call, not at module init. *)
          if Callgraph.arity_of_expr vb.pvb_expr > 0 then None
          else
            match mutable_kind ~mut_fields vb.pvb_expr with
            | None -> None
            | Some kind ->
              let short = last_segment name in
              let siblings =
                List.length
                  (List.filter
                     (fun (name', vb') ->
                       name' <> name && mentions_ident short vb'.pvb_expr)
                       bindings)
                in
                Some
                  (finding_at ~rule:Rules.domain_safety_id ~file:path ~severity vb.pvb_loc
                     (Printf.sprintf
                        "toplevel mutable state (%s) is shared by every domain once the \
                         sharded controller fans out; referenced by %d sibling top-level \
                         binding%s — pass it to callers explicitly or guard it with a \
                         domain-safe primitive"
                        kind siblings
                        (if siblings = 1 then "" else "s"))))
        bindings)
    parsed

(* ---- interprocedural pass: hot-path-alloc ---- *)

(* Walk one reachable binding body for allocation sites.  The leading
   parameter spine is peeled (defining a function is not an allocation on
   the path that calls it); everything underneath is classified. *)
let walk_hot_body ~graph ~emit body =
  let skip = Hashtbl.create 8 in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          (* A constructor's immediate tuple payload is its argument list,
             not a separate tuple allocation; a [::] spine reports once at
             the head. *)
          (match e.pexp_desc with
          | Pexp_construct (_, Some ({ pexp_desc = Pexp_tuple _; _ } as payload)) ->
            Hashtbl.replace skip payload.pexp_loc ()
          | _ -> ());
          (match Alloc_class.cons_tail e with
          | Some tl -> Hashtbl.replace skip tl.pexp_loc ()
          | None -> ());
          (if not (Hashtbl.mem skip e.pexp_loc) then
             match Alloc_class.classify ~arity_of:(Callgraph.arity_of graph) e with
             | Some cls -> emit ~loc:e.pexp_loc cls
             | None -> ());
          default.Ast_iterator.expr it e);
    }
  in
  let rec start e =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, b) | Pexp_newtype (_, b) | Pexp_constraint (b, _) -> start b
    | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (it.Ast_iterator.expr it) c.pc_guard;
          it.Ast_iterator.expr it c.pc_rhs)
        cases
    | _ -> it.Ast_iterator.expr it e
  in
  start body

let hot_path_findings ~severity ~applies ~graph =
  let findings = ref [] in
  List.iter
    (fun ((node : Callgraph.node), chain) ->
      let file = node.Callgraph.n_file in
      if applies file then begin
        let chain_s = String.concat " -> " chain in
        let emit ~loc cls =
          findings :=
            finding_at ~rule:Rules.hot_path_alloc_id ~file ~severity loc
              (Printf.sprintf
                 "%s on a hot path ([@hot] %s); hoist it, reuse a buffer, or justify it \
                  with [@alloc.allow \"reason\"]"
                 (Alloc_class.describe cls) chain_s)
            :: !findings
        in
        walk_hot_body ~graph ~emit node.Callgraph.n_binding.pvb_expr
      end)
    (Callgraph.reachable_from_hot graph);
  !findings

(* ---- interprocedural pass: test-only-export ---- *)

(* The [val]s of an interface, submodule signatures as ["Sub.f"]. *)
let rec sig_vals ~prefix items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd -> [ prefix ^ vd.pval_name.Location.txt ]
      | Psig_module
          { pmd_name = { txt = Some sub; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ }
        ->
        sig_vals ~prefix:(prefix ^ sub ^ ".") s
      | _ -> [])
    items

(* Each [val] is looked up at its [.ml] binding, and the finding lands
   there, so [[@@lint.allow]] on the binding suppresses it. *)
let test_only_findings ~severity ~applies ~graph paths interfaces =
  let program = Hashtbl.create 256 and tests = Hashtbl.create 256 in
  List.iter
    (fun path ->
      let seen = if Rules.in_test path then tests else program in
      List.iter
        (fun (n : Callgraph.node) ->
          if n.Callgraph.n_file <> path then
            Hashtbl.replace seen (n.Callgraph.n_file, n.Callgraph.n_name) ())
        (Callgraph.mentions graph ~file:path))
    paths;
  List.concat_map
    (fun (mli, signature) ->
      let file = Filename.remove_extension mli ^ ".ml" in
      if not (applies file) then []
      else
        List.filter_map
          (fun name ->
            match Callgraph.find graph ~file name with
            | Some n when not (Hashtbl.mem program (file, name)) ->
              let why =
                if Hashtbl.mem tests (file, name) then
                  "only test/ mentions it outside its module; delete it with the tests of \
                   it alone, move it into a test/ helper, or keep a reference interface \
                   with [@@lint.allow \"oracle hook: test/<file>\"]"
                else "no other module mentions it; drop it from the interface"
              in
              Some
                (finding_at ~rule:Rules.test_only_export_id ~file ~severity n.Callgraph.n_loc
                   (Printf.sprintf "%s is exported by %s but %s" (Callgraph.label n) mli why))
            | _ -> None)
          (sig_vals ~prefix:"" signature))
    interfaces

(* ---- repo-level drivers ---- *)

let lint_sources ?(rules = Rules.all) sources =
  let interfaces, sources =
    List.partition (fun (path, _) -> Filename.check_suffix path ".mli") sources
  in
  let parsed = List.map (fun (path, src) -> (path, parse Parse.implementation path src)) sources in
  let parsed_mli =
    List.map (fun (path, src) -> (path, parse Parse.interface path src)) interfaces
  in
  let oks_of l = List.filter_map (function p, Ok s -> Some (p, s) | _, Error _ -> None) l in
  let oks = oks_of parsed in
  let graph = lazy (Callgraph.build oks) in
  let pass id run =
    match List.find_opt (fun (r : Rules.t) -> r.Rules.id = id) rules with
    | Some r -> run ~severity:r.Rules.severity ~applies:r.Rules.applies
    | None -> []
  in
  (* The three whole-repo passes, filed by the file each finding is in. *)
  let extra = Hashtbl.create 64 in
  List.iter
    (fun (f : Finding.t) -> Hashtbl.add extra f.Finding.file f)
    (pass Rules.domain_safety_id (fun ~severity ~applies ->
         domain_safety_findings ~severity (List.filter (fun (p, _) -> applies p) oks))
    @ pass Rules.test_only_export_id (fun ~severity ~applies ->
          test_only_findings ~severity ~applies ~graph:(Lazy.force graph) (List.map fst oks)
            (oks_of parsed_mli))
    @ pass Rules.hot_path_alloc_id (fun ~severity ~applies ->
          hot_path_findings ~severity ~applies ~graph:(Lazy.force graph)));
  let parse_error path (loc, msg) =
    [ finding_at ~rule:parse_error_rule ~file:path ~severity:Finding.Error loc msg ]
  in
  let per_file =
    List.concat_map
      (fun (path, res) ->
        match res with
        | Error e -> parse_error path e
        | Ok structure -> lint_parsed ~extra:(Hashtbl.find_all extra path) ~rules ~path structure)
      parsed
  in
  let mli_errors =
    List.concat_map
      (fun (path, res) -> match res with Error e -> parse_error path e | Ok _ -> [])
      parsed_mli
  in
  List.sort Finding.compare (per_file @ mli_errors)
[@@lint.allow "oracle hook: test/test_lint.ml"]

let lint_files ?rules paths =
  (* Each [.ml] brings its interface along, for [test-only-export]. *)
  let paths =
    List.concat_map
      (fun p ->
        if Filename.check_suffix p ".ml" && Sys.file_exists (p ^ "i") then [ p; p ^ "i" ]
        else [ p ])
      paths
  in
  let sources, unreadable =
    List.fold_left
      (fun (sources, unreadable) path ->
        match In_channel.with_open_bin path In_channel.input_all with
        | src -> ((path, src) :: sources, unreadable)
        | exception Sys_error msg ->
          ( sources,
            Finding.v ~rule:parse_error_rule ~file:path ~line:1 ~col:0
              ~severity:Finding.Error ("cannot read file: " ^ msg)
            :: unreadable ))
      ([], []) paths
  in
  List.sort Finding.compare (unreadable @ lint_sources ?rules (List.rev sources))

(* Deterministic recursive walk: sorted entries; [_build], [_opam] and
   dot-directories (and dot-files) skipped at every level. *)
let rec ml_files_under path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun entry ->
           (not (String.length entry > 0 && entry.[0] = '.'))
           && entry <> "_build" && entry <> "_opam")
    |> List.concat_map (fun entry -> ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []
