(* Deterministic line-oriented serialization for checkpoints and journals.

   The format is plain text: one [key value] pair or [[section]] marker per
   line.  Floats are written as hex literals (%h), so every IEEE-754 double
   round-trips bit-exactly; int64 RNG words are written in decimal.  A
   sealed document carries a version magic and an MD5 checksum over the
   body, so a torn or hand-edited file is rejected instead of silently
   restoring garbage. *)

type error = { line : int; reason : string }

exception Parse_error of error

let parse_error line reason = raise (Parse_error { line; reason })

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.reason

(* ---- writing ---- *)

type writer = Buffer.t

let writer () = Buffer.create 4096

let contents w = Buffer.contents w

let section w name = Buffer.add_string w (Printf.sprintf "[%s]\n" name)

let string w key v =
  if String.contains v '\n' then invalid_arg "Codec.string: value must be single-line";
  Buffer.add_string w (Printf.sprintf "%s %s\n" key v)

let int w key v = string w key (string_of_int v)

let bool w key v = string w key (if v then "1" else "0")

let float w key v = string w key (Printf.sprintf "%h" v)

let int64 w key v = string w key (Int64.to_string v)

(* ---- reading ---- *)

type reader = { lines : string array; mutable pos : int }

let reader_of_string s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  { lines = Array.of_list lines; pos = 0 }

let at_end r = r.pos >= Array.length r.lines

let peek_line r = if at_end r then None else Some r.lines.(r.pos)

let next_line r =
  match peek_line r with
  | None -> parse_error (r.pos + 1) "unexpected end of document"
  | Some l ->
    r.pos <- r.pos + 1;
    l

let is_section l = String.length l >= 2 && l.[0] = '[' && l.[String.length l - 1] = ']'

let skip_line r = if not (at_end r) then r.pos <- r.pos + 1

let peek_section r =
  match peek_line r with
  | Some l when is_section l -> Some (String.sub l 1 (String.length l - 2))
  | Some _ | None -> None

let expect_section r name =
  let l = next_line r in
  if l <> Printf.sprintf "[%s]" name then
    parse_error r.pos (Printf.sprintf "expected section [%s], got %S" name l)

(* Consume the next [key value] line, checking the key. *)
let string_field r key =
  let l = next_line r in
  match String.index_opt l ' ' with
  | None -> parse_error r.pos (Printf.sprintf "expected %S field, got %S" key l)
  | Some i ->
    let k = String.sub l 0 i in
    if k <> key then parse_error r.pos (Printf.sprintf "expected %S field, got %S" key k);
    String.sub l (i + 1) (String.length l - i - 1)

let int_field r key =
  let v = string_field r key in
  match int_of_string_opt v with
  | Some n -> n
  | None -> parse_error r.pos (Printf.sprintf "field %S: invalid int %S" key v)

let bool_field r key =
  match string_field r key with
  | "1" -> true
  | "0" -> false
  | v -> parse_error r.pos (Printf.sprintf "field %S: invalid bool %S" key v)

let float_field r key =
  let v = string_field r key in
  match float_of_string_opt v with
  | Some f -> f
  | None -> parse_error r.pos (Printf.sprintf "field %S: invalid float %S" key v)

let int64_field r key =
  let v = string_field r key in
  match Int64.of_string_opt v with
  | Some n -> n
  | None -> parse_error r.pos (Printf.sprintf "field %S: invalid int64 %S" key v)

(* The expected value is rendered by the caller's writer and compared as
   text; a float's hex literal spells out its bit pattern. *)
let constant write r key v =
  let w = writer () in
  write w key v;
  let line = contents w in
  let expected = String.sub line (String.length key + 1) (String.length line - String.length key - 2) in
  let got = string_field r key in
  if got <> expected then
    parse_error r.pos (Printf.sprintf "field %S: expected the constant %s, got %S" key expected got)

(* Run [f] exactly [n] times, left to right (List.init leaves the
   evaluation order unspecified, which would scramble sequential reads). *)
let repeat n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f () :: acc) in
  go 0 []

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
