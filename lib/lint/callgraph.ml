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

(* Per-file resolution context: the file's own module name, its simple
   top-level aliases ([module O = Dream_obs]) and its top-level opens. *)
type ctx = { c_aliases : (string * string list) list; c_opens : string list list }

type t = {
  cg_nodes : (string * string, node) Hashtbl.t;  (* (file, name) -> node *)
  cg_keys : (string * string) list;  (* sorted *)
  cg_edges : (string * string, (string * string) list) Hashtbl.t;  (* sorted targets *)
  cg_by_module : (string, string list) Hashtbl.t;  (* module name -> sorted files *)
  cg_ctx : (string, ctx) Hashtbl.t;
  cg_suffix : (string * string, (string * string) list) Hashtbl.t;
      (* (file, last segment of a dotted binding name) -> keys, so [f] inside
         submodule [Sub] finds [Sub.f] without scanning every node *)
}

let key n = (n.n_file, n.n_name)
let label n = n.n_module ^ "." ^ n.n_name

let compare_key (f1, n1) (f2, n2) =
  match String.compare f1 f2 with 0 -> String.compare n1 n2 | c -> c

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

let qualified lid =
  match flatten lid with "Stdlib" :: rest -> rest | parts -> parts

let has_hot_attr attrs =
  List.exists (fun a -> a.attr_name.Location.txt = "hot") attrs

let rec arity_of_expr e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> 1 + arity_of_expr body
  | Pexp_newtype (_, body) -> arity_of_expr body
  | Pexp_constraint (body, _) -> arity_of_expr body
  | Pexp_function _ -> 1
  | _ -> 0

let rec binding_names pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_constraint (p, _) -> binding_names p
  | Ppat_tuple ps -> List.concat_map binding_names ps
  | _ -> []

(* Top-level bindings of a structure, descending into named submodules
   with a dotted prefix; other structures (functor bodies, local modules)
   are out of scope by design. *)
let rec collect_bindings ~prefix items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.concat_map
          (fun vb ->
            List.map
              (fun name ->
                ( prefix ^ name,
                  vb.pvb_loc,
                  has_hot_attr vb.pvb_attributes,
                  arity_of_expr vb.pvb_expr,
                  vb ))
              (binding_names vb.pvb_pat))
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

let ctx_of_structure items =
  let aliases, opens =
    List.fold_left
      (fun (aliases, opens) item ->
        match item.pstr_desc with
        | Pstr_module
            {
              pmb_name = { txt = Some name; _ };
              pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
              _;
            } ->
          ((name, qualified txt) :: aliases, opens)
        | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
          (aliases, qualified txt :: opens)
        | _ -> (aliases, opens))
      ([], []) items
  in
  { c_aliases = List.rev aliases; c_opens = List.rev opens }

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

let no_scope = { c_aliases = []; c_opens = [] }

(* The file's context with a local scope (local opens and module aliases,
   innermost first) in front of it. *)
let scope_ctx t ~file local =
  let fctx = Option.value ~default:no_scope (Hashtbl.find_opt t.cg_ctx file) in
  { c_aliases = local.c_aliases @ fctx.c_aliases; c_opens = local.c_opens @ fctx.c_opens }

let expand ctx parts =
  match parts with
  | a :: rest -> (
    match List.assoc_opt a ctx.c_aliases with
    | Some target -> target @ rest
    | None -> parts)
  | [] -> []

let resolve ?(local = no_scope) t ~file parts =
  let ctx = scope_ctx t ~file local in
  let parts = expand ctx parts in
  let direct = resolve_direct t ~file parts in
  let via_opens =
    List.concat_map (fun o -> resolve_direct t ~file (o @ parts)) ctx.c_opens
  in
  List.sort_uniq (fun a b -> compare_key (key a) (key b)) (direct @ via_opens)

(* Every identifier mentioned in an expression, in traversal order.
   Mentions, not calls: a function passed first-class is an edge. *)
let idents_of_expr e =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            match qualified txt with [] -> () | parts -> acc := parts :: !acc)
          | _ -> ());
          default.Ast_iterator.expr it e);
    }
  in
  it.Ast_iterator.expr it e;
  List.rev !acc

let build files =
  let files = List.sort (fun (a, _) (b, _) -> String.compare a b) files in
  let t =
    {
      cg_nodes = Hashtbl.create 256;
      cg_keys = [];
      cg_edges = Hashtbl.create 256;
      cg_by_module = Hashtbl.create 64;
      cg_ctx = Hashtbl.create 64;
      cg_suffix = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (path, structure) ->
      let m = module_name_of_path path in
      let existing = files_of_module t m in
      Hashtbl.replace t.cg_by_module m (List.sort String.compare (path :: existing));
      Hashtbl.replace t.cg_ctx path (ctx_of_structure structure);
      List.iter
        (fun (name, loc, hot, arity, vb) ->
          let node =
            {
              n_file = path;
              n_module = m;
              n_name = name;
              n_loc = loc;
              n_hot = hot;
              n_arity = arity;
              n_binding = vb;
            }
          in
          (* First binding of a name wins; shadowing rebinds are rare at
             top level and the first site is the stable anchor. *)
          if not (Hashtbl.mem t.cg_nodes (key node)) then begin
            Hashtbl.replace t.cg_nodes (key node) node;
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
  List.iter
    (fun k ->
      match node_opt t k with
      | None -> ()
      | Some n ->
        let targets =
          idents_of_expr n.n_binding.pvb_expr
          |> List.concat_map (fun parts -> resolve t ~file:n.n_file parts)
          |> List.map key
          |> List.filter (fun k' -> k' <> k)
          |> List.sort_uniq compare_key
        in
        Hashtbl.replace t.cg_edges k targets)
    keys;
  t

let nodes t = List.filter_map (node_opt t) t.cg_keys

let find t ~file name = node_opt t (file, name)

let mentions t ~file structure =
  let found = Hashtbl.create 64 in
  let local = ref no_scope in
  let scoped s f =
    let saved = !local in
    local := s;
    f ();
    local := saved
  in
  let path_of lid = expand (scope_ctx t ~file !local) (qualified lid) in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      Ast_iterator.expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
            List.iter
              (fun n -> Hashtbl.replace found (key n) n)
              (match qualified txt with [] -> [] | parts -> resolve ~local:!local t ~file parts)
          | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, body) ->
            let s = !local in
            scoped
              { s with c_opens = path_of txt :: s.c_opens }
              (fun () -> it.Ast_iterator.expr it body)
          | Pexp_letmodule
              ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, body) ->
            let s = !local in
            scoped
              { s with c_aliases = (name, path_of txt) :: s.c_aliases }
              (fun () -> it.Ast_iterator.expr it body)
          | _ -> default.Ast_iterator.expr it e);
      Ast_iterator.structure_item =
        (fun it si ->
          (* An [open] or alias inside a submodule scopes over the rest of
             the file here: a wider scope can only add mentions. *)
          (match si.pstr_desc with
          | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
            local := { !local with c_opens = path_of txt :: !local.c_opens }
          | Pstr_module
              {
                pmb_name = { txt = Some name; _ };
                pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
                _;
              } ->
            local := { !local with c_aliases = (name, path_of txt) :: !local.c_aliases }
          | _ -> ());
          default.Ast_iterator.structure_item it si);
    }
  in
  it.Ast_iterator.structure it structure;
  Hashtbl.fold (fun _ n acc -> n :: acc) found []
  |> List.sort (fun a b -> compare_key (key a) (key b))

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

let top_bindings structure =
  List.map (fun (name, _, _, _, vb) -> (name, vb)) (collect_bindings ~prefix:"" structure)

let arity_of_ident t ~file lid =
  match qualified lid with
  | [] -> None
  | parts -> (
    match resolve t ~file parts with
    | [ n ] when n.n_arity > 0 -> Some n.n_arity
    | _ -> None)
