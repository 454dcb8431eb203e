open Parsetree

type node = {
  n_file : string;
  n_module : string;
  n_name : string;
  n_loc : Location.t;
  n_hot : bool;
  n_arity : int;
  n_binding : Parsetree.value_binding;
}

(* One entry of a lexical scope, innermost first: a module opened, a
   module alias, or the value names bound by an enclosing
   [let]/[fun]/[function]/[match]/[for], which hide every outer binding of
   those names. *)
type frame = Open of string list | Alias of string * string list | Bound of string list

type t = {
  cg_nodes : (string * string, node) Hashtbl.t;  (* (file, name) -> node *)
  cg_keys : (string * string) list;  (* sorted *)
  cg_edges : (string * string, (string * string) list) Hashtbl.t;  (* sorted targets *)
  cg_mentions : (string, node list) Hashtbl.t;  (* file -> sorted nodes *)
  cg_resolved : (Location.t, node list) Hashtbl.t;  (* identifier -> its candidates *)
  cg_by_module : (string, string list) Hashtbl.t;  (* module name -> sorted files *)
  cg_scope : (string, frame list) Hashtbl.t;
      (* file -> its top-level aliases and opens, which scope over the
         whole file *)
  cg_suffix : (string * string, (string * string) list) Hashtbl.t;
      (* (file, last segment of a dotted binding name) -> keys, so [f] inside
         submodule [Sub] finds [Sub.f] without scanning every node *)
}

let key n = (n.n_file, n.n_name)
let label n = n.n_module ^ "." ^ n.n_name

let compare_key (f1, n1) (f2, n2) =
  match String.compare f1 f2 with 0 -> String.compare n1 n2 | c -> c

let by_key a b = compare_key (key a) (key b)

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let path_components path =
  List.filter (fun c -> c <> "" && c <> ".") (String.split_on_char '/' path)

(* [lib/core/controller.ml] -> [Some "core"]: the library directory, for
   resolving [Dream_core.Controller.tick]-style qualified names. *)
let lib_of_path path =
  let rec go = function
    | "lib" :: next :: _ when not (Filename.check_suffix next ".ml") -> Some next
    | _ :: rest -> go rest
    | [] -> None
  in
  go (path_components path)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

(* [Stdlib.Random.int] and [Random.int] are the same name. *)
let qualified lid =
  match flatten lid with "Stdlib" :: rest -> rest | parts -> parts

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match qualified txt with [] -> None | parts -> Some parts)
  | _ -> None

let has_hot_attr attrs =
  List.exists (fun a -> a.attr_name.Location.txt = "hot") attrs

let rec arity_of_expr e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> 1 + arity_of_expr body
  | Pexp_newtype (_, body) -> arity_of_expr body
  | Pexp_constraint (body, _) -> arity_of_expr body
  | Pexp_function _ -> 1
  | _ -> 0

(* Every variable a pattern binds, however deeply nested. *)
let pattern_vars pat =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          default.Ast_iterator.pat it p);
    }
  in
  it.Ast_iterator.pat it pat;
  !acc

(* Top-level bindings of a structure, descending into named submodules
   with a dotted prefix; other structures (functor bodies, local modules)
   are out of scope by design. *)
let rec collect_bindings ~prefix items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.concat_map
          (fun vb -> List.map (fun name -> (prefix ^ name, vb)) (List.rev (pattern_vars vb.pvb_pat)))
          vbs
      | Pstr_module
          {
            pmb_name = { txt = Some sub; _ };
            pmb_expr = { pmod_desc = Pmod_structure s; _ };
            _;
          } ->
        collect_bindings ~prefix:(prefix ^ sub ^ ".") s
      | _ -> [])
    items

(* The file's top-level aliases ([module O = Dream_obs]) and opens, in
   file order. *)
let file_scope items =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module
          {
            pmb_name = { txt = Some name; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
            _;
          } ->
        Some (Alias (name, qualified txt))
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        Some (Open (qualified txt))
      | _ -> None)
    items

let node_opt t k = Hashtbl.find_opt t.cg_nodes k

let files_of_module t m =
  match Hashtbl.find_opt t.cg_by_module m with Some fs -> fs | None -> []

let same_file_nodes t ~file name =
  (* Exact name, or a submodule binding referenced unqualified from inside
     its own submodule ([Sub.f] reached as [f]). *)
  match node_opt t (file, name) with
  | Some n -> [ n ]
  | None -> (
    match Hashtbl.find_opt t.cg_suffix (file, name) with
    | Some keys -> List.filter_map (node_opt t) keys
    | None -> [])

let is_dream_lib l =
  String.length l > 6 && String.sub l 0 6 = "Dream_"

(* Resolve one (already alias-expanded) dotted path to candidate nodes. *)
let resolve_direct t ~file parts =
  match parts with
  | [ f ] -> same_file_nodes t ~file f
  | [ m; f ] ->
    let sub = match node_opt t (file, m ^ "." ^ f) with Some n -> [ n ] | None -> [] in
    sub
    @ List.filter_map (fun fl -> node_opt t (fl, f)) (files_of_module t m)
  | l :: m :: ([ _ ] | [ _; _ ] as name) when is_dream_lib l ->
    let libdir = String.lowercase_ascii (String.sub l 6 (String.length l - 6)) in
    files_of_module t m
    |> List.filter (fun fl -> lib_of_path fl = Some libdir)
    |> List.filter_map (fun fl -> node_opt t (fl, String.concat "." name))
  | [ m; s; f ] ->
    List.filter_map (fun fl -> node_opt t (fl, s ^ "." ^ f)) (files_of_module t m)
  | _ -> []

(* One step of alias expansion, innermost alias first. *)
let expand scope parts =
  match parts with
  | a :: rest -> (
    match List.find_map (function Alias (n, target) when n = a -> Some target | _ -> None) scope with
    | Some target -> target @ rest
    | None -> parts)
  | [] -> []

(* Candidates of a path seen under [scope]: directly, and through every
   open.  A bare name bound locally stops the search there: the file's
   binding of it, and modules opened outside the local binding, are
   hidden; modules opened inside it still count. *)
let resolve t ~file scope parts =
  let parts = expand scope parts in
  let rec go = function
    | [] -> resolve_direct t ~file parts
    | Open o :: rest -> resolve_direct t ~file (o @ parts) @ go rest
    | Bound names :: rest -> (
      match parts with [ f ] when List.mem f names -> [] | _ -> go rest)
    | Alias _ :: rest -> go rest
  in
  List.sort_uniq by_key (go scope)

(* The one identifier walker.  It walks [file]'s structure once, keeping
   the lexical scope, and hands [visit] each identifier's candidate nodes
   with the keys of the node(s) whose binding encloses it ([[]] outside
   any node, as in [let () = …] bodies), and [~applied] when the
   identifier is the function of an application ([f x], [x |> f],
   [f @@ x]).  [owners] maps a binding's location to its nodes. *)
let walk t ~owners ~file structure ~visit =
  let owner = ref [] in
  let scope = ref (Option.value ~default:[] (Hashtbl.find_opt t.cg_scope file)) in
  let within frame f =
    let saved = !scope in
    scope := frame :: saved;
    f ();
    scope := saved
  in
  let bind pats f = within (Bound (List.concat_map pattern_vars pats)) f in
  let module_path lid = expand !scope (qualified lid) in
  let default = Ast_iterator.default_iterator in
  let cases it cs =
    List.iter
      (fun c ->
        bind [ c.pc_lhs ] (fun () ->
            Option.iter (it.Ast_iterator.expr it) c.pc_guard;
            it.Ast_iterator.expr it c.pc_rhs))
      cs
  in
  let ident ~applied e txt =
    match qualified txt with
    | [] -> ()
    | parts -> visit !owner e ~applied (resolve t ~file !scope parts)
  in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          let expr = it.Ast_iterator.expr it in
          let callee f =
            match f.pexp_desc with
            | Pexp_ident { txt; _ } -> ident ~applied:true f txt
            | _ -> expr f
          in
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> ident ~applied:false e txt
          | Pexp_apply
              ( ({ pexp_desc = Pexp_ident { txt = Longident.Lident ("|>" | "@@" as op); _ }; _ }
                 as f),
                [ (Nolabel, l); (Nolabel, r) ] ) ->
            ident ~applied:true f (Longident.Lident op);
            if op = "|>" then (expr l; callee r) else (callee l; expr r)
          | Pexp_apply (f, args) ->
            callee f;
            List.iter (fun (_, a) -> expr a) args
          | Pexp_let (Recursive, vbs, body) ->
            bind (List.map (fun vb -> vb.pvb_pat) vbs) (fun () ->
                List.iter (it.Ast_iterator.value_binding it) vbs;
                expr body)
          | Pexp_let (Nonrecursive, vbs, body) ->
            List.iter (it.Ast_iterator.value_binding it) vbs;
            bind (List.map (fun vb -> vb.pvb_pat) vbs) (fun () -> expr body)
          | Pexp_fun (_, default, p, body) ->
            Option.iter expr default;
            bind [ p ] (fun () -> expr body)
          | Pexp_function cs -> cases it cs
          | Pexp_match (e, cs) | Pexp_try (e, cs) ->
            expr e;
            cases it cs
          | Pexp_for (p, lo, hi, _, body) ->
            expr lo;
            expr hi;
            bind [ p ] (fun () -> expr body)
          | Pexp_letop { let_; ands; body } ->
            let ops = let_ :: ands in
            (* [let+ x = e in …] applies the operator [( let+ )]. *)
            List.iter
              (fun op ->
                let name = op.pbop_op in
                let ident =
                  Ast_helper.Exp.ident ~loc:name.loc { name with txt = Longident.Lident name.txt }
                in
                visit !owner ident ~applied:true (resolve t ~file !scope [ name.txt ]);
                expr op.pbop_exp)
              ops;
            bind (List.map (fun op -> op.pbop_pat) ops) (fun () -> expr body)
          | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, body) ->
            within (Open (module_path txt)) (fun () -> expr body)
          | Pexp_letmodule
              ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body) ->
            within (Alias (name, module_path txt)) (fun () -> expr body)
          | _ -> default.Ast_iterator.expr it e);
      Ast_iterator.value_binding =
        (fun it vb ->
          match
            List.filter_map
              (fun n -> if n.n_binding == vb then Some (key n) else None)
              (Hashtbl.find_all owners vb.pvb_loc)
          with
          | [] -> default.Ast_iterator.value_binding it vb
          | keys ->
            let saved = !owner in
            owner := keys;
            default.Ast_iterator.value_binding it vb;
            owner := saved);
      Ast_iterator.structure_item =
        (fun it si ->
          (* An [open] or alias inside a submodule scopes over the rest of
             the file here: a wider scope can only add candidates. *)
          (match si.pstr_desc with
          | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
            scope := Open (module_path txt) :: !scope
          | Pstr_module
              {
                pmb_name = { txt = Some name; _ };
                pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
                _;
              } ->
            scope := Alias (name, module_path txt) :: !scope
          | _ -> ());
          default.Ast_iterator.structure_item it si);
    }
  in
  it.Ast_iterator.structure it structure

let build files =
  let files = List.sort (fun (a, _) (b, _) -> String.compare a b) files in
  let t =
    {
      cg_nodes = Hashtbl.create 256;
      cg_keys = [];
      cg_edges = Hashtbl.create 256;
      cg_mentions = Hashtbl.create 64;
      cg_resolved = Hashtbl.create 4096;
      cg_by_module = Hashtbl.create 64;
      cg_scope = Hashtbl.create 64;
      cg_suffix = Hashtbl.create 64;
    }
  in
  let owners = Hashtbl.create 256 in
  List.iter
    (fun (path, structure) ->
      let m = module_name_of_path path in
      let existing = files_of_module t m in
      Hashtbl.replace t.cg_by_module m (List.sort String.compare (path :: existing));
      Hashtbl.replace t.cg_scope path (file_scope structure);
      List.iter
        (fun (name, vb) ->
          let node =
            {
              n_file = path;
              n_module = m;
              n_name = name;
              n_loc = vb.pvb_loc;
              n_hot = has_hot_attr vb.pvb_attributes;
              n_arity = arity_of_expr vb.pvb_expr;
              n_binding = vb;
            }
          in
          (* First binding of a name wins; shadowing rebinds are rare at
             top level and the first site is the stable anchor. *)
          if not (Hashtbl.mem t.cg_nodes (key node)) then begin
            Hashtbl.replace t.cg_nodes (key node) node;
            Hashtbl.add owners vb.pvb_loc node;
            match String.rindex_opt name '.' with
            | None -> ()
            | Some i ->
              let last = String.sub name (i + 1) (String.length name - i - 1) in
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt t.cg_suffix (path, last))
              in
              Hashtbl.replace t.cg_suffix (path, last)
                (List.sort_uniq compare_key (key node :: prev))
          end)
        (collect_bindings ~prefix:"" structure))
    files;
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.cg_nodes [] |> List.sort compare_key
  in
  let t = { t with cg_keys = keys } in
  let targets = Hashtbl.create 1024 in
  List.iter
    (fun (path, structure) ->
      let mentioned = Hashtbl.create 64 in
      walk t ~owners ~file:path structure ~visit:(fun enclosing e ~applied nodes ->
          Hashtbl.replace t.cg_resolved e.pexp_loc nodes;
          List.iter
            (fun n ->
              Hashtbl.replace mentioned (key n) n;
              (* A binding that is no function runs once, when its module
                 initialises: reading its value calls nothing.  Applying
                 it calls the closure it holds (a partial application,
                 say), so that is still an edge. *)
              if n.n_arity > 0 || applied then
                List.iter (fun k -> if k <> key n then Hashtbl.add targets k (key n)) enclosing)
            nodes);
      Hashtbl.replace t.cg_mentions path
        (Hashtbl.fold (fun _ n acc -> n :: acc) mentioned [] |> List.sort by_key))
    files;
  List.iter
    (fun k ->
      Hashtbl.replace t.cg_edges k (List.sort_uniq compare_key (Hashtbl.find_all targets k)))
    keys;
  t

let nodes t = List.filter_map (node_opt t) t.cg_keys

let find t ~file name = node_opt t (file, name)

let mentions t ~file = Option.value ~default:[] (Hashtbl.find_opt t.cg_mentions file)

let hot_roots t = List.filter (fun n -> n.n_hot) (nodes t)

let successors t k =
  match Hashtbl.find_opt t.cg_edges k with Some ts -> ts | None -> []
let reachable_from_hot t =
  let visited = Hashtbl.create 64 in
  let pred = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun n ->
      let k = key n in
      if not (Hashtbl.mem visited k) then begin
        Hashtbl.replace visited k ();
        Queue.push k queue
      end)
    (hot_roots t);
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    List.iter
      (fun s ->
        if not (Hashtbl.mem visited s) then begin
          Hashtbl.replace visited s ();
          Hashtbl.replace pred s k;
          Queue.push s queue
        end)
      (successors t k)
  done;
  let chain_of k =
    let rec go k acc =
      match Hashtbl.find_opt pred k with None -> k :: acc | Some p -> go p (k :: acc)
    in
    go k []
    |> List.filter_map (fun k -> Option.map label (node_opt t k))
  in
  t.cg_keys
  |> List.filter (Hashtbl.mem visited)
  |> List.filter_map (fun k ->
         Option.map (fun n -> (n, chain_of k)) (node_opt t k))

let top_bindings structure = collect_bindings ~prefix:"" structure

let arity_of t e =
  match Hashtbl.find_opt t.cg_resolved e.pexp_loc with
  | Some [ n ] when n.n_arity > 0 -> Some n.n_arity
  | Some _ | None -> None
