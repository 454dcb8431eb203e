(* A walker over Codec's read-only view: the keys a description writes a
   value under, computed from the description and the value alone.  Each
   rendering names its keys its own way, so the walk takes the rendering:

   - in lines ([~json:false]) every line's key in order, a section or a
     keyless case's marker as [[name]], an option's [has_key] flag line
     included;
   - in JSON ([~json:true]) the path of every member in document order,
     as [schedule.events[3].at]; an option holding nothing is no member.

   A [let*]'s left side is computed from the record being written, as the
   line writer does.  The tests compare the walk with the keys of the
   rendered document. *)

module V = Dream_util.Codec.View

type 'r case_k = { f : 'b. string -> 'b V.t -> 'b -> 'r }

(* The case a value is written under, handed to [k] with its tag. *)
let with_case : type a r. a V.case list -> a -> r case_k -> r =
 fun cases v k ->
  let rec go = function
    | [] -> invalid_arg "Key_paths: value of no case"
    | V.Case (tag, d, _, project) :: rest -> (
      match project v with Some x -> k.f tag d x | None -> go rest)
  in
  go cases

(* What a [let*] binds, read back from the record being written. *)
let rec bound : type r a. (r, a) V.fields -> r -> a =
 fun fields r ->
  match fields with
  | V.Field (_, proj) -> proj r
  | V.Rest (_, proj) -> proj r
  | V.Map (p, f) -> f (bound p r)
  | V.Both (p, q) -> (bound p r, bound q r)
  | V.Bind (p, k) -> bound (k (bound p r)) r

let rec line_keys : type a. a V.t -> a -> string list =
 fun d v ->
  match d with
  | V.Leaf (key, _) | V.Constant (key, _, _) -> [ key ]
  | V.Option (_, flag, d) -> flag :: (match v with Some x -> line_keys d x | None -> [])
  | V.Section (name, d) -> ("[" ^ name ^ "]") :: line_keys d v
  | V.Repeat (key, d) -> key :: List.concat_map (line_keys d) v
  | V.Exactly (_, d) -> List.concat_map (line_keys d) v
  | V.All ds -> List.concat (List.map2 line_keys ds v)
  | V.Conv (d, _, encode) -> line_keys d (encode v)
  | V.Cases { key; cases; _ } ->
    with_case cases v
      {
        f =
          (fun tag d x ->
            (match key with Some key -> key | None -> "[" ^ tag ^ "]") :: line_keys d x);
      }
  | V.Record fields -> field_line_keys fields v
  | V.Delay f -> line_keys (f ()) v

and field_line_keys : type r a. (r, a) V.fields -> r -> string list =
 fun fields r ->
  match fields with
  | V.Field (d, proj) -> line_keys d (proj r)
  | V.Rest _ -> invalid_arg "Key_paths: rest in lines"
  | V.Map (p, _) -> field_line_keys p r
  | V.Both (p, q) -> field_line_keys p r @ field_line_keys q r
  | V.Bind (p, k) -> field_line_keys p r @ field_line_keys (k (bound p r)) r

let member path key = if path = "" then key else path ^ "." ^ key

(* In a value's place at [path]: the members below it. *)
let rec below : type a. string -> a V.t -> a -> string list =
 fun path d v ->
  match d with
  | V.Leaf _ | V.Constant _ -> []
  | V.Option (_, _, d) -> ( match v with Some x -> below path d x | None -> [])
  | V.Section (_, d) -> members path d v
  | V.Repeat (_, d) -> List.concat (List.mapi (fun i -> below (Printf.sprintf "%s[%d]" path i) d) v)
  | V.Conv (d, _, encode) -> below path d (encode v)
  | V.Cases { key = None; cases; _ } -> with_case cases v { f = (fun _ d x -> below path d x) }
  | V.Cases _ | V.Record _ -> members path d v
  | V.Exactly _ | V.All _ | V.Delay _ -> invalid_arg "Key_paths: a line-only node in JSON"

(* In the record's place of the object at [path]: its members' paths. *)
and members : type a. string -> a V.t -> a -> string list =
 fun path d v ->
  match d with
  | V.Leaf (key, _) | V.Constant (key, _, _) -> [ member path key ]
  | V.Section (key, _) | V.Repeat (key, _) -> member path key :: below (member path key) d v
  | V.Option (key, _, d) -> (
    match v with Some x -> member path key :: below (member path key) d x | None -> [])
  | V.Conv (d, _, encode) -> members path d (encode v)
  | V.Cases { key = Some key; cases; _ } ->
    with_case cases v { f = (fun _ d x -> member path key :: members path d x) }
  | V.Record fields -> field_members path fields v
  | V.Cases _ | V.Exactly _ | V.All _ | V.Delay _ ->
    invalid_arg "Key_paths: a line-only node in JSON"

and field_members : type r a. string -> (r, a) V.fields -> r -> string list =
 fun path fields r ->
  match fields with
  | V.Field (d, proj) -> members path d (proj r)
  | V.Rest (d, proj) ->
    List.concat_map (fun (k, x) -> member path k :: below (member path k) d x) (proj r)
  | V.Map (p, _) -> field_members path p r
  | V.Both (p, q) -> field_members path p r @ field_members path q r
  | V.Bind _ -> invalid_arg "Key_paths: let* in JSON"

let key_paths ~json d v = if json then below "" d v else line_keys d v

(* The same keys, read off a rendered document. *)

let keys_of_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> match String.index_opt l ' ' with Some i -> String.sub l 0 i | None -> l)

let rec paths_of_json path = function
  | Dream_obs.Json.Obj ms ->
    List.concat_map (fun (k, v) -> member path k :: paths_of_json (member path k) v) ms
  | Dream_obs.Json.List items ->
    List.concat (List.mapi (fun i -> paths_of_json (Printf.sprintf "%s[%d]" path i)) items)
  | _ -> []

(* The objects of a document that name a member twice, by path. *)
let rec repeated_members path = function
  | Dream_obs.Json.Obj ms ->
    let keys = List.map fst ms in
    (if List.length keys <> List.length (List.sort_uniq String.compare keys) then [ path ] else [])
    @ List.concat_map (fun (k, v) -> repeated_members (member path k) v) ms
  | Dream_obs.Json.List items ->
    List.concat (List.mapi (fun i -> repeated_members (Printf.sprintf "%s[%d]" path i)) items)
  | _ -> []
