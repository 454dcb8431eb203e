type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- emission ---- *)

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* A float must re-parse as a float: force a '.' or exponent into the
   shortest %g rendering that round-trips. *)
let float_to_string f =
  if not (Float.is_finite f) then "null"
  else begin
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"
  end

(* [xs] between [op] and [cl], separated by commas. *)
let seq buf op cl f xs =
  Buffer.add_char buf op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      f x)
    xs;
  Buffer.add_char buf cl

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Str s -> escape_into buf s
  | List items -> seq buf '[' ']' (emit buf) items
  | Obj fields ->
    seq buf '{' '}'
      (fun (k, v) ->
        escape_into buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields

let to_string v =
  let buf = Buffer.create 128 in
  emit buf v;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Fail of string

type state = { src : string; mutable pos : int }

let fail st msg = raise (Fail (Printf.sprintf "offset %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected %C, found %C" c c')
  | None -> fail st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let digits = String.sub st.src st.pos 4 in
  let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if not (String.for_all hex digits) then fail st "invalid \\u escape";
  st.pos <- st.pos + 4;
  int_of_string ("0x" ^ digits)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "truncated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let code = hex4 st in
          let code =
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* high surrogate: a low surrogate must follow *)
              expect st '\\';
              expect st 'u';
              let low = hex4 st in
              if low < 0xDC00 || low > 0xDFFF then fail st "unpaired surrogate"
              else 0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
            end
            else if code >= 0xDC00 && code <= 0xDFFF then fail st "unpaired surrogate"
            else code
          in
          Buffer.add_utf_8_uchar buf (Uchar.of_int code)
        | c -> fail st (Printf.sprintf "invalid escape \\%c" c)));
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_num_char c ->
      advance st;
      go ()
    | Some _ | None -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  (* A float must be finite: no other can be written back. *)
  let float () =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Float f
    | Some _ | None -> fail st (Printf.sprintf "invalid number %S" s)
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then float ()
  else begin
    match int_of_string_opt s with
    | Some i -> Int i
    (* integers beyond native range still parse as floats *)
    | None -> float ()
  end

(* The items up to [close], separated by commas, just past the opener. *)
let items st close item =
  skip_ws st;
  if peek st = Some close then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let x = item () in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        go (x :: acc)
      | Some c when c = close ->
        advance st;
        List.rev (x :: acc)
      | _ -> fail st (Printf.sprintf "expected ',' or '%c'" close)
    in
    go []
  end

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some '[' ->
    advance st;
    List (items st ']' (fun () -> parse_value st))
  | Some '{' ->
    advance st;
    Obj
      (items st '}' (fun () ->
           skip_ws st;
           let k = parse_string st in
           skip_ws st;
           expect st ':';
           (k, parse_value st)))
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos = String.length s then Ok v
    else Error (Printf.sprintf "offset %d: trailing characters" st.pos)
  | exception Fail msg -> Error msg

(* ---- descriptions ---- *)

(* The JSON interpreter over [Codec]'s descriptions.  A node sits either
   in a value's place, where its key is ignored, or in a record's place,
   where a keyed node is the member its key names and a record or keyed
   cases is a run of members. *)

module Codec = Dream_util.Codec
module V = Codec.View

(* A refusal, and the reversed steps of the member path it was found under. *)
exception At of string list * string

let refuse_at path fmt = Printf.ksprintf (fun reason -> raise (At (path, reason))) fmt

(* A refusal a conv or a record builder raises is charged to its path. *)
let checked path f x = try f x with Codec.Refused reason -> raise (At (path, reason))

let unsupported () = invalid_arg "Json: a node JSON does not render"

(* The case a value is written under: its tag, description and payload. *)
type 'a chosen = Chosen : string * 'b V.t * 'b -> 'a chosen

let rec choose : type a. a V.case list -> a -> a chosen =
 fun cases v ->
  match cases with
  | [] -> invalid_arg "Json.encode: value of no case"
  | V.Case (tag, d, _, project) :: rest -> (
    match project v with Some x -> Chosen (tag, d, x) | None -> choose rest v)

(* A value as an error message quotes it, cut short. *)
let shown v =
  let s = to_string v in
  if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let scalar : type a. a V.prim -> a -> t =
 fun prim v ->
  match prim with
  | V.Int -> Int v
  | V.Float -> Float v
  | V.Bool -> Bool v
  | V.String -> Str v
  | V.Int64 -> Str (Int64.to_string v)

(* A float also reads from an int. *)
let read_scalar : type a. string list -> a V.prim -> t -> a =
 fun path prim v ->
  let x : a option =
    match (prim, v) with
    | V.Int, Int i -> Some i
    | V.Float, Float f -> Some f
    | V.Float, Int i -> Some (float_of_int i)
    | V.Bool, Bool b -> Some b
    | V.String, Str s -> Some s
    | V.Int64, Str s -> Int64.of_string_opt s
    | _ -> None
  in
  match x with Some x -> x | None -> refuse_at path "unexpected %s" (shown v)

(* The one member a node always is in a record's place, if it is one.  An
   option, a member only when it holds a value, is read and written on its
   own. *)
let rec member_key : type a. a V.t -> string option = function
  | V.Leaf (key, _) | V.Constant (key, _, _) | V.Section (key, _) | V.Repeat (key, _) -> Some key
  | V.Conv (d, _, _) -> member_key d
  | V.Option _ | V.Exactly _ | V.All _ | V.Cases _ | V.Record _ | V.Delay _ -> None

let rec value : type a. a V.t -> a -> t =
 fun d v ->
  match d with
  | V.Leaf (_, prim) -> scalar prim v
  | V.Constant (_, prim, c) -> scalar prim c
  | V.Option (_, _, d) -> ( match v with Some x -> value d x | None -> Null)
  | V.Section (_, d) -> Obj (members d v)
  | V.Repeat (_, d) -> List (List.map (value d) v)
  | V.Conv (d, _, encode) -> value d (encode v)
  | V.Cases { key = None; cases; _ } ->
    let (Chosen (_, d, x)) = choose cases v in
    value d x
  | V.Cases _ | V.Record _ -> Obj (members d v)
  | V.Exactly _ | V.All _ | V.Delay _ -> unsupported ()

and members : type a. a V.t -> a -> (string * t) list =
 fun d v ->
  match (member_key d, d) with
  | Some key, _ -> [ (key, value d v) ]
  | None, V.Option (key, _, d) -> ( match v with Some x -> [ (key, value d x) ] | None -> [])
  | None, V.Record fields -> field_members fields v
  | None, V.Conv (d, _, encode) -> members d (encode v)
  | None, V.Cases { key = Some key; cases; _ } ->
    let (Chosen (tag, d, x)) = choose cases v in
    (key, Str tag) :: members d x
  | None, _ -> unsupported ()

and field_members : type r a. (r, a) V.fields -> r -> (string * t) list =
 fun fields r ->
  match fields with
  | V.Field (d, proj) -> members d (proj r)
  | V.Rest (d, proj) -> List.map (fun (k, x) -> (k, value d x)) (proj r)
  | V.Map (p, _) -> field_members p r
  | V.Both (p, q) -> field_members p r @ field_members q r
  | V.Bind _ -> unsupported ()

(* An object being read, and the keys its fields named so far: a [rest]
   reads the others. *)
type obj = { members : (string * t) list; mutable named : string list }

let obj path = function
  | Obj members -> { members; named = [] }
  | v -> refuse_at path "expected an object, got %s" (shown v)

let rec read : type a. string list -> a V.t -> t -> a =
 fun path d v ->
  match d with
  | V.Leaf (_, prim) -> read_scalar path prim v
  | V.Constant (_, prim, c) ->
    let expected = scalar prim c in
    if v <> expected then
      refuse_at path "expected the constant %s, got %s" (shown expected) (shown v)
  | V.Option (_, _, d) -> Some (read path d v)
  | V.Repeat (_, d) -> (
    match v with
    | List items -> List.mapi (fun i -> read (Printf.sprintf "[%d]" i :: path) d) items
    | v -> refuse_at path "expected a list, got %s" (shown v))
  | V.Conv (d, decode, _) -> checked path decode (read path d v)
  | V.Cases { key = None; what; cases } ->
    let rec first = function
      | [] -> refuse_at path "unknown %s %s" what (shown v)
      | V.Case (_, d, inject, _) :: rest -> (
        match read path d v with x -> inject x | exception At _ -> first rest)
    in
    first cases
  | V.Exactly _ | V.All _ | V.Delay _ -> unsupported ()
  | V.Section (_, d) -> get path d (obj path v)
  | V.Cases _ | V.Record _ -> get path d (obj path v)

and get : type a. string list -> a V.t -> obj -> a =
 fun path d o ->
  match (member_key d, d) with
  | Some key, _ -> (
    o.named <- key :: o.named;
    match List.assoc_opt key o.members with
    | Some v -> read (("." ^ key) :: path) d v
    | None -> refuse_at path "missing member %S" key)
  | None, V.Option (key, _, d) ->
    o.named <- key :: o.named;
    Option.map (read (("." ^ key) :: path) d) (List.assoc_opt key o.members)
  | None, V.Record fields -> get_fields path fields o
  | None, V.Conv (d, decode, _) -> checked path decode (get path d o)
  | None, V.Cases { key = Some key; what; cases } -> (
    let path' = ("." ^ key) :: path in
    o.named <- key :: o.named;
    let tag =
      match List.assoc_opt key o.members with
      | Some (Str tag) -> tag
      | Some v -> refuse_at path' "unexpected %s" (shown v)
      | None -> refuse_at path "missing member %S" key
    in
    match List.find_opt (fun (V.Case (t, _, _, _)) -> t = tag) cases with
    | Some (V.Case (_, d, inject, _)) -> inject (get path d o)
    | None -> refuse_at path' "unknown %s %S" what tag)
  | None, _ -> unsupported ()

and get_fields : type r a. string list -> (r, a) V.fields -> obj -> a =
 fun path fields o ->
  match fields with
  | V.Field (d, _) -> get path d o
  | V.Rest (d, _) ->
    List.filter_map
      (fun (k, v) -> if List.mem k o.named then None else Some (k, read (("." ^ k) :: path) d v))
      o.members
  | V.Map (p, f) -> checked path f (get_fields path p o)
  | V.Both (p, q) ->
    let a = get_fields path p o in
    (a, get_fields path q o)
  | V.Bind _ -> unsupported ()

let encode = value

let decode d v =
  match read [] d v with
  | x -> Ok x
  | exception At ([], reason) -> Error reason
  | exception At (steps, reason) ->
    let path = String.concat "" (List.rev steps) in
    let path = if path.[0] = '.' then String.sub path 1 (String.length path - 1) else path in
    Error (path ^ ": " ^ reason)
