(* Typed descriptions, and their deterministic line rendering for
   checkpoints and journals.

   Lines are one [key value] pair or [[section]] marker each.  Floats are
   hex literals (%h), so every IEEE-754 double round-trips bit-exactly;
   int64 RNG words are decimal.  A sealed document carries a version magic
   and an MD5 checksum over the body, so a torn or hand-edited file is
   rejected instead of silently restoring garbage.

   The nodes live in [View], private outside this module: any walker reads
   a description, and only the combinators below build one. *)

type error = { line : int; reason : string }

exception Parse_error of error

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.reason

exception Refused of string

let refuse reason = raise (Refused reason)

(* Out of lines, as a sequence reader must tell it from a refusal. *)
exception End_of_document of int

(* ---- descriptions ---- *)

module View = struct
  type _ prim =
    | Int : int prim
    | Float : float prim
    | Bool : bool prim
    | String : string prim
    | Int64 : int64 prim

  type _ t =
    | Leaf : string * 'a prim -> 'a t
    | Constant : string * 'a prim * 'a -> unit t
    | Option : string * string * 'a t -> 'a option t
    | Section : string * 'a t -> 'a t
    | Repeat : string * 'a t -> 'a list t
    | Exactly : int * 'a t -> 'a list t
    | All : 'a t list -> 'a list t
    | Conv : 'a t * ('a -> 'b) * ('b -> 'a) -> 'b t
    | Cases : { what : string; key : string option; cases : 'a case list } -> 'a t
    | Record : ('r, 'r) fields -> 'r t
    | Delay : (unit -> 'a t) -> 'a t

  and 'a case = Case : string * 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

  and (_, _) fields =
    | Field : 'a t * ('r -> 'a) -> ('r, 'a) fields
    | Rest : 'a t * ('r -> (string * 'a) list) -> ('r, (string * 'a) list) fields
    | Map : ('r, 'a) fields * ('a -> 'b) -> ('r, 'b) fields
    | Both : ('r, 'a) fields * ('r, 'b) fields -> ('r, 'a * 'b) fields
    | Bind : ('r, 'a) fields * ('a -> ('r, 'b) fields) -> ('r, 'b) fields
end

open View

type 'a t = 'a View.t

let int key = Leaf (key, Int)
let float key = Leaf (key, Float)
let bool key = Leaf (key, Bool)
let string key = Leaf (key, String)
let int64 key = Leaf (key, Int64)

let constant (type a) (d : a t) (v : a) =
  match d with
  | Leaf (key, prim) -> Constant (key, prim, v)
  | _ -> invalid_arg "Codec.constant: not a single field"

let option key d = Option (key, "has_" ^ key, d)
let section name d = Section (name, d)
let repeat key d = Repeat (key, d)
let all ds = All ds

let exactly n d = Exactly (n, d)

let conv decode encode d = Conv (d, decode, encode)

let rec code_of v = function
  | [] -> invalid_arg "Codec.encode: value without a code"
  | (x, code) :: rest -> if x = v then code else code_of v rest

let enum_of show d ~what codes =
  let decode code =
    match List.find_opt (fun (_, c) -> c = code) codes with
    | Some (v, _) -> v
    | None -> refuse (Printf.sprintf "unknown %s %s" what (show code))
  in
  Conv (d, decode, fun v -> code_of v codes)

let enum ~what key codes = enum_of (Printf.sprintf "%S") (Leaf (key, String)) ~what codes
let int_enum ~what key codes = enum_of string_of_int (Leaf (key, Int)) ~what codes
let case tag d inject project = Case (tag, d, inject, project)
let cases ~what ?key cases = Cases { what; key; cases }
let record fields = Record fields
let delay f = Delay f

let field d proj = Field (d, proj)
let rest d proj = Rest (d, proj)
let ( let+ ) p f = Map (p, f)
let ( and+ ) p q = Both (p, q)
let ( let* ) p k = Bind (p, k)
let pair a b = Record (Both (Field (a, fst), Field (b, snd)))

let show : type a. a prim -> a -> string =
 fun prim v ->
  match prim with
  | Int -> string_of_int v
  | Float -> Printf.sprintf "%h" v
  | Bool -> if v then "1" else "0"
  | String -> v
  | Int64 -> Int64.to_string v

let read : type a. a prim -> string -> a option =
 fun prim s ->
  match prim with
  | Int -> int_of_string_opt s
  | Float -> float_of_string_opt s
  | Bool -> ( match s with "1" -> Some true | "0" -> Some false | _ -> None)
  | String -> Some s
  | Int64 -> Int64.of_string_opt s

let prim_name : type a. a prim -> string = function
  | Int -> "int"
  | Float -> "float"
  | Bool -> "bool"
  | String -> "string"
  | Int64 -> "int64"

(* ---- encoding ---- *)

let unsupported () = invalid_arg "Codec: a JSON-only node in a line document"

let put_line b key v =
  if String.contains v '\n' then invalid_arg "Codec.encode: value must be single-line";
  Buffer.add_string b key;
  Buffer.add_char b ' ';
  Buffer.add_string b v;
  Buffer.add_char b '\n'

let put_section b name =
  Buffer.add_char b '[';
  Buffer.add_string b name;
  Buffer.add_string b "]\n"

let rec put : type a. Buffer.t -> a t -> a -> unit =
 fun b d v ->
  match d with
  | Leaf (key, prim) -> put_line b key (show prim v)
  | Constant (key, prim, c) -> put_line b key (show prim c)
  | Option (_, flag, d) -> (
    put_line b flag (match v with Some _ -> "1" | None -> "0");
    match v with Some x -> put b d x | None -> ())
  | Section (name, d) ->
    put_section b name;
    put b d v
  | Repeat (key, d) ->
    put_line b key (show Int (List.length v));
    put_list b d v
  | Exactly (n, d) ->
    if List.length v <> n then invalid_arg "Codec.encode: wrong number of values";
    put_list b d v
  | All ds -> put_all b ds v
  | Conv (d, _, encode) -> put b d (encode v)
  | Cases { key; cases; _ } -> put_case b key cases v
  | Record fields -> put_fields b fields v
  | Delay f -> put b (f ()) v

and put_list : type a. Buffer.t -> a t -> a list -> unit =
 fun b d -> function
  | [] -> ()
  | x :: rest ->
    put b d x;
    put_list b d rest

and put_all : type a. Buffer.t -> a t list -> a list -> unit =
 fun b ds vs ->
  match ds with
  | [] -> if vs <> [] then invalid_arg "Codec.encode: wrong number of values"
  | d :: ds -> (
    match vs with
    | v :: vs ->
      put b d v;
      put_all b ds vs
    | [] -> invalid_arg "Codec.encode: wrong number of values")

and put_case : type a. Buffer.t -> string option -> a case list -> a -> unit =
 fun b key cases v ->
  match cases with
  | [] -> invalid_arg "Codec.encode: value of no case"
  | Case (tag, d, _, project) :: rest -> (
    match project v with
    | None -> put_case b key rest v
    | Some x ->
      (match key with Some key -> put_line b key tag | None -> put_section b tag);
      put b d x)

and put_fields : type r a. Buffer.t -> (r, a) fields -> r -> unit =
 fun b fields r ->
  match fields with
  | Field (d, proj) -> put b d (proj r)
  | Rest _ -> unsupported ()
  | Map (p, _) -> put_fields b p r
  | Both (p, q) ->
    put_fields b p r;
    put_fields b q r
  | Bind (p, k) ->
    put_fields b p r;
    put_fields b (k (value p r)) r

(* What a [let*] binds, read back from the record being written. *)
and value : type r a. (r, a) fields -> r -> a =
 fun fields r ->
  match fields with
  | Field (_, proj) -> proj r
  | Rest (_, proj) -> proj r
  | Map (p, f) -> f (value p r)
  | Both (p, q) -> (value p r, value q r)
  | Bind (p, k) -> value (k (value p r)) r

let encode d v =
  let b = Buffer.create 4096 in
  put b d v;
  Buffer.contents b

(* ---- decoding ---- *)

type reader = { lines : string array; mutable pos : int }

let fail r reason = raise (Parse_error { line = r.pos; reason })

let next_line r =
  if r.pos >= Array.length r.lines then raise (End_of_document (r.pos + 1));
  r.pos <- r.pos + 1;
  r.lines.(r.pos - 1)

let take_section r name =
  let l = next_line r in
  if l <> "[" ^ name ^ "]" then fail r (Printf.sprintf "expected section [%s], got %S" name l)

(* The value of the next [key value] line, checking the key. *)
let take_value r key =
  let l = next_line r in
  match String.index_opt l ' ' with
  | Some i when String.sub l 0 i = key -> String.sub l (i + 1) (String.length l - i - 1)
  | Some i -> fail r (Printf.sprintf "expected %S field, got %S" key (String.sub l 0 i))
  | None -> fail r (Printf.sprintf "expected %S field, got %S" key l)

let take : type a. reader -> string -> a prim -> a =
 fun r key prim ->
  let v = take_value r key in
  match read prim v with
  | Some x -> x
  | None -> fail r (Printf.sprintf "field %S: invalid %s %S" key (prim_name prim) v)

(* A refusal raised while [f] runs is charged to the last line read. *)
let checked r f x = try f x with Refused reason -> fail r reason

let rec get : type a. reader -> a t -> a =
 fun r d ->
  match d with
  | Leaf (key, prim) -> take r key prim
  | Constant (key, prim, c) ->
    let expected = show prim c in
    let got = take_value r key in
    if got <> expected then
      fail r (Printf.sprintf "field %S: expected the constant %s, got %S" key expected got)
  | Option (_, flag, d) -> if take r flag Bool then Some (get r d) else None
  | Section (name, d) ->
    take_section r name;
    get r d
  | Repeat (key, d) ->
    let n = take r key Int in
    if n < 0 then fail r (Printf.sprintf "field %S: negative count %d" key n);
    get_n r n d
  | Exactly (n, d) ->
    if n < 0 then fail r (Printf.sprintf "negative count %d" n);
    get_n r n d
  | All ds ->
    let rec go acc = function [] -> List.rev acc | d :: rest -> go (get r d :: acc) rest in
    go [] ds
  | Conv (d, decode, _) ->
    let x = get r d in
    checked r decode x
  | Cases { what; key; cases } ->
    let tag, shown =
      match key with
      | Some key ->
        let tag = take r key String in
        (tag, Printf.sprintf "%S" tag)
      | None ->
        let l = next_line r in
        let n = String.length l in
        if n < 2 || l.[0] <> '[' || l.[n - 1] <> ']' then
          fail r (Printf.sprintf "expected a %s section" what);
        (String.sub l 1 (n - 2), l)
    in
    let rec pick = function
      | [] -> fail r (Printf.sprintf "unknown %s %s" what shown)
      | Case (t, d, inject, _) :: rest -> if t = tag then inject (get r d) else pick rest
    in
    pick cases
  | Record fields -> get_fields r fields
  | Delay f -> get r (f ())

(* Left to right: [List.init] leaves its evaluation order unspecified. *)
and get_n : type a. reader -> int -> a t -> a list =
 fun r n d ->
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (get r d :: acc) in
  go 0 []

and get_fields : type r a. reader -> (r, a) fields -> a =
 fun r fields ->
  match fields with
  | Field (d, _) -> get r d
  | Rest _ -> unsupported ()
  | Map (p, f) ->
    let x = get_fields r p in
    checked r f x
  | Both (p, q) ->
    let a = get_fields r p in
    let b = get_fields r q in
    (a, b)
  | Bind (p, k) ->
    let a = get_fields r p in
    get_fields r (checked r k a)

let reader_of_string s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  { lines = Array.of_list lines; pos = 0 }

let at_end r = r.pos >= Array.length r.lines

let truncated line = Parse_error { line; reason = "unexpected end of document" }

let decode d s =
  let r = reader_of_string s in
  match get r d with
  | v ->
    if not (at_end r) then
      raise (Parse_error { line = r.pos + 1; reason = "expected the end of the document" });
    v
  | exception End_of_document line -> raise (truncated line)

let decode_sequence d s =
  let r = reader_of_string s in
  let rec go acc =
    if at_end r then List.rev acc
    else
      match get r d with
      | v -> go (v :: acc)
      | exception End_of_document _ -> List.rev acc
  in
  go []

(* ---- sealed documents ---- *)

let seal ~magic body =
  Printf.sprintf "%s\nchecksum %s\n%s" magic (Digest.to_hex (Digest.string body)) body

let unseal ~magic doc =
  match String.index_opt doc '\n' with
  | None -> Error "empty document"
  | Some i ->
    let header = String.sub doc 0 i in
    if header <> magic then
      Error (Printf.sprintf "bad magic: expected %S, got %S" magic header)
    else begin
      let rest = String.sub doc (i + 1) (String.length doc - i - 1) in
      match String.index_opt rest '\n' with
      | None -> Error "missing checksum line"
      | Some j ->
        let sum_line = String.sub rest 0 j in
        let body = String.sub rest (j + 1) (String.length rest - j - 1) in
        (match String.split_on_char ' ' sum_line with
        | [ "checksum"; hex ] ->
          if String.lowercase_ascii hex = Digest.to_hex (Digest.string body) then Ok body
          else Error "checksum mismatch: document is corrupt or was modified"
        | _ -> Error (Printf.sprintf "malformed checksum line %S" sum_line))
    end
