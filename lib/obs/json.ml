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

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Str s -> escape_into buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

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

let utf8_of_code buf code =
  (* Encode one Unicode scalar value; surrogates arrive pre-combined. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 st =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "invalid \\u escape"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    match peek st with
    | Some c ->
      v := (!v * 16) + digit c;
      advance st
    | None -> fail st "truncated \\u escape"
  done;
  !v

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
            else code
          in
          utf8_of_code buf code
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
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields (kv :: acc)
        | Some '}' ->
          advance st;
          List.rev (kv :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
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

(* A refusal, and the path of members and items it was found under. *)
exception Refused of string * string

let refuse reason = raise (Refused ("", reason))

let failf fmt = Printf.ksprintf refuse fmt

(* A value as an error message quotes it, cut short. *)
let shown v =
  let s = to_string v in
  if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let under step f x = try f x with Refused (path, reason) -> raise (Refused (step ^ path, reason))

type 'a codec = { write : 'a -> t; read : t -> 'a }

let scalar what write get =
  let read v = match get v with Some x -> x | None -> failf "expected %s, got %s" what (shown v) in
  { write; read }

let int = scalar "an int" (fun i -> Int i) (function Int i -> Some i | _ -> None)

let float =
  scalar "a number"
    (fun f -> Float f)
    (function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None)

let string = scalar "a string" (fun s -> Str s) (function Str s -> Some s | _ -> None)

let bool = scalar "a bool" (fun b -> Bool b) (function Bool b -> Some b | _ -> None)

let any = { write = Fun.id; read = Fun.id }

let list d =
  {
    write = (fun xs -> List (List.map d.write xs));
    read =
      (function
      | List items -> List.mapi (fun i -> under (Printf.sprintf "[%d]" i) d.read) items
      | v -> failf "expected a list, got %s" (shown v));
  }

let conv decode encode d =
  { write = (fun b -> d.write (encode b)); read = (fun j -> decode (d.read j)) }

let constant d c =
  let expected = d.write c in
  {
    write = (fun () -> expected);
    read = (fun v -> if v <> expected then failf "expected %s, got %s" (shown expected) (shown v));
  }

(* A record's fields: the keys they name, their members for a value, and
   the value read back from an object's members.  [rest] reads every
   member no field of its record names. *)
type ('r, 'a) fields = {
  keys : string list;
  put : 'r -> (string * t) list;
  get : named:string list -> (string * t) list -> 'a;
}

let field key d proj =
  {
    keys = [ key ];
    put = (fun r -> [ (key, d.write (proj r)) ]);
    get =
      (fun ~named:_ members ->
        match List.assoc_opt key members with
        | Some v -> under ("." ^ key) d.read v
        | None -> failf "missing member %S" key);
  }

let optional key d proj =
  {
    keys = [ key ];
    put = (fun r -> match proj r with Some x -> [ (key, d.write x) ] | None -> []);
    get =
      (fun ~named:_ members -> Option.map (under ("." ^ key) d.read) (List.assoc_opt key members));
  }

let rest d proj =
  {
    keys = [];
    put = (fun r -> List.map (fun (k, x) -> (k, d.write x)) (proj r));
    get =
      (fun ~named members ->
        List.filter_map
          (fun (k, v) -> if List.mem k named then None else Some (k, under ("." ^ k) d.read v))
          members);
  }

let ( let+ ) p f = { p with get = (fun ~named members -> f (p.get ~named members)) }

let ( and+ ) p q =
  {
    keys = p.keys @ q.keys;
    put = (fun r -> p.put r @ q.put r);
    get =
      (fun ~named members ->
        let a = p.get ~named members in
        (a, q.get ~named members));
  }

let members = function Obj members -> members | v -> failf "expected an object, got %s" (shown v)

let record fields =
  {
    write = (fun r -> Obj (fields.put r));
    read = (fun v -> fields.get ~named:fields.keys (members v));
  }

type 'a case = Case : string * 'b codec * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case tag d inject project = Case (tag, d, inject, project)

(* The tag is the object's first member; the case's record reads the
   members other than the tag. *)
let cases ~what ~key cases =
  let rec write v = function
    | [] -> invalid_arg "Json.encode: value of no case"
    | Case (tag, d, _, project) :: rest -> (
      match project v with
      | None -> write v rest
      | Some x -> Obj ((key, Str tag) :: members (d.write x)))
  in
  let tag = field key string Fun.id in
  let read v =
    let members = members v in
    let tag = tag.get ~named:[] members in
    match List.find_opt (fun (Case (t, _, _, _)) -> t = tag) cases with
    | Some (Case (_, d, inject, _)) -> inject (d.read (Obj (List.filter (fun (k, _) -> k <> key) members)))
    | None -> raise (Refused ("." ^ key, Printf.sprintf "unknown %s %S" what tag))
  in
  { write = (fun v -> write v cases); read }

let encode d v = d.write v

let decode d j =
  match d.read j with
  | v -> Ok v
  | exception Refused ("", reason) -> Error reason
  | exception Refused (path, reason) ->
    let path = if path.[0] = '.' then String.sub path 1 (String.length path - 1) else path in
    Error (path ^ ": " ^ reason)
