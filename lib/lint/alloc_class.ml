open Parsetree

type t =
  | Tuple
  | Record
  | Variant of string
  | List_literal
  | Array_literal
  | Closure
  | Partial_app of string
  | Append of string
  | Boxed_float of string
  | Format_call of string
  | Alloc_fn of string

let describe = function
  | Tuple -> "tuple construction"
  | Record -> "record construction"
  | Variant c -> Printf.sprintf "variant %s with a payload" c
  | List_literal -> "list construction"
  | Array_literal -> "array literal"
  | Closure -> "closure construction"
  | Partial_app f -> Printf.sprintf "partial application of %s" f
  | Append f -> Printf.sprintf "%s builds a fresh copy" f
  | Boxed_float f -> Printf.sprintf "%s boxes its float result" f
  | Format_call f -> Printf.sprintf "%s allocates format machinery" f
  | Alloc_fn f -> Printf.sprintf "%s allocates its result" f

let append_fns =
  [
    "@"; "^"; "List.append"; "List.concat"; "List.concat_map"; "List.flatten";
    "Array.append"; "Array.concat"; "String.concat"; "String.cat"; "Bytes.cat";
  ]

(* Only conversions, deliberately: local float *arithmetic* ([+.], [*.],
   ...) is unboxed by ocamlopt, so flagging every operator would drown
   the report in non-allocations.  A conversion result handed onward is
   the syntactic shape that reliably ends up boxed (stored, returned, or
   passed as a polymorphic argument). *)
let float_producers =
  [ "float_of_int"; "float_of_string"; "Float.of_int"; "Float.of_string" ]

(* Curated allocating stdlib entry points that show up in this codebase's
   hot paths; anything missing is a documented loophole, not a bug. *)
let alloc_fns =
  [
    "List.map"; "List.mapi"; "List.map2"; "List.rev"; "List.rev_append";
    "List.rev_map"; "List.filter"; "List.filter_map"; "List.init"; "List.sort";
    "List.stable_sort"; "List.sort_uniq"; "List.split"; "List.combine";
    "List.of_seq"; "List.to_seq";
    "Array.make"; "Array.init"; "Array.create_float"; "Array.make_matrix";
    "Array.copy"; "Array.sub"; "Array.map"; "Array.mapi"; "Array.to_list";
    "Array.of_list"; "Array.of_seq";
    "String.make"; "String.init"; "String.sub"; "String.map"; "String.split_on_char";
    "String.to_seq"; "String.uppercase_ascii"; "String.lowercase_ascii";
    "String.capitalize_ascii";
    "Bytes.make"; "Bytes.create"; "Bytes.init"; "Bytes.sub"; "Bytes.copy";
    "Bytes.of_string"; "Bytes.to_string"; "Bytes.sub_string";
    "Hashtbl.create"; "Hashtbl.copy"; "Hashtbl.fold"; "Hashtbl.to_seq";
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes";
    "Queue.create"; "Stack.create"; "ref";
    "string_of_int"; "string_of_float"; "Int.to_string"; "Float.to_string";
    "Option.map"; "Option.some"; "Option.to_list"; "Result.map"; "Result.bind";
  ]

let head_name e = Option.map (String.concat ".") (Callgraph.ident_path e)

let is_format_call name =
  String.length name > 7
  && (String.sub name 0 7 = "Printf." || String.sub name 0 7 = "Format.")

let cons_tail e =
  match e.pexp_desc with
  | Pexp_construct
      ({ txt = Longident.Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ _; tl ]; _ }) ->
    Some tl
  | _ -> None

let classify ~arity_of e =
  match e.pexp_desc with
  | Pexp_tuple _ -> Some Tuple
  | Pexp_record _ -> Some Record
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some _) -> Some List_literal
  | Pexp_construct ({ txt; _ }, Some _) -> (
    match Callgraph.qualified txt with
    | [] -> None
    | parts -> Some (Variant (String.concat "." parts)))
  | Pexp_variant (_, Some _) -> Some (Variant "`poly")
  | Pexp_array (_ :: _) -> Some Array_literal
  | Pexp_fun _ | Pexp_function _ -> Some Closure
  | Pexp_lazy _ -> Some Closure
  | Pexp_apply (f, args) -> (
    match head_name f with
    | None -> None
    | Some name ->
      if List.mem name append_fns then Some (Append name)
      else if List.mem name float_producers then Some (Boxed_float name)
      else if is_format_call name then Some (Format_call name)
      else if List.mem name alloc_fns then Some (Alloc_fn name)
      else (
        match arity_of f with
        | Some a when List.length args < a -> Some (Partial_app name)
        | _ -> None))
  | _ -> None
