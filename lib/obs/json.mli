(** Minimal JSON values, enough for the telemetry exporters and their
    readers.  Emission and parsing live together so every byte the
    subsystem writes can be read back by the same code (the [inspect]
    subcommand and the CI JSONL validator both go through {!of_string}).

    Numbers: OCaml [int] and [float] are kept distinct on emission
    ([Float] always renders with a decimal point or exponent so the value
    re-parses as a float); non-finite floats have no JSON spelling and
    render as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering — one call per JSONL line. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; trailing garbage is an error.  Accepts
    the standard escapes and [\uXXXX] (decoded to UTF-8), and refuses a
    number beyond the float range, which could not be written back. *)

(** {1 Descriptions}

    A document's layout is written once, as a typed description
    ['a codec], in the vocabulary of {!Dream_util.Codec}; {!encode} and
    {!decode} are the two walks over it, so a writer and its reader
    cannot drift apart.

    {[
      record
        (let+ path = field "path" string (fun s -> s.path)
         and+ count = field "count" int (fun s -> s.count) in
         { path; count })
    ]}

    Members are written in the order their fields appear.  A reader
    ignores members its record does not name (unless it has a {!rest}),
    and refuses a missing member, a value of the wrong type or anything a
    {!conv} or record builder {!refuse}s, naming the member path it was
    found under ([metrics[2].value: expected a number, got null]). *)

type 'a codec

val int : int codec

val float : float codec
(** Written as [Float]; an [Int] also reads.  A non-finite float writes as
    [null], which it does not read. *)

val string : string codec

val bool : bool codec

val any : t codec
(** Any value, as it is. *)

val list : 'a codec -> 'a list codec

val conv : ('a -> 'b) -> ('b -> 'a) -> 'a codec -> 'b codec
(** [conv decode encode d]: [decode] may {!refuse}. *)

val constant : 'a codec -> 'a -> unit codec
(** Writes the value and refuses any other — a document's version. *)

val refuse : string -> 'a
(** Refuse a value from inside a {!conv} or a record builder. *)

type ('r, 'a) fields

val field : string -> 'a codec -> ('r -> 'a) -> ('r, 'a) fields
(** [field key d proj]: the member [key], required. *)

val optional : string -> 'a codec -> ('r -> 'a option) -> ('r, 'a option) fields
(** Left out when [None]; absent reads as [None]. *)

val rest : 'a codec -> ('r -> (string * 'a) list) -> ('r, (string * 'a) list) fields
(** Every member no other field of the record names, in order. *)

val ( let+ ) : ('r, 'a) fields -> ('a -> 'b) -> ('r, 'b) fields
val ( and+ ) : ('r, 'a) fields -> ('r, 'b) fields -> ('r, 'a * 'b) fields

val record : ('r, 'r) fields -> 'r codec
(** An object of the fields' members.  The builder runs on decode only. *)

type 'a case

val case : string -> 'b codec -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag d inject project]: the values [project] maps to [Some] are
    written under [tag]; [d] must be a {!record}. *)

val cases : what:string -> key:string -> 'a case list -> 'a codec
(** A tagged union: an object whose first member [key] holds the case's
    tag, followed by the case's record.  The case's record reads every
    member but [key], so a repeated [key] is no member of it.  An unknown
    tag is refused as [unknown <what> "tag"]. *)

val encode : 'a codec -> 'a -> t

val decode : 'a codec -> t -> ('a, string) result
(** Never raises: every refusal is an [Error] naming its member path. *)
