(** Typed descriptions of documents, and their line rendering.

    A document's layout is written once, as a description ['a t]; an
    interpreter walks it beside a value to write the value, and again to
    read one back, so every field is named once and a writer and its
    reader cannot disagree.  This module renders checkpoints and journals
    as lines ({!encode}, {!decode}); [Dream_obs.Json] renders the
    telemetry, bench, lint and chaos documents from the same descriptions.

    Lines are [[section]] markers and [key value] lines.  Floats are hex
    literals, so every double round-trips bit-exactly; {!seal} wraps a body
    with a version magic and an MD5 checksum that {!unseal} verifies before
    any parsing happens.

    Keys sit on leaves ([field (int "count") proj]), and each names a
    line.  In JSON a node's place decides what its key means: in a
    record's place a leaf, {!constant}, {!section}, {!repeat} or {!option}
    is the member its key names; in a value's place (a list item, an
    option's value, the whole document) the key is ignored.  {!rest} is
    JSON-only; {!exactly}, {!all}, {!delay}, [let*] and a keyless
    {!cases} in a record's place are line-only: the other interpreter
    raises [Invalid_argument] on them.

    Refusals live in the descriptions: a value of the wrong type, a wrong
    key or section, an unknown code or tag, a count below 0 or a changed
    constant is refused where it was read.  A {!conv}, a record builder or
    a [let*] continuation may {!refuse} (a check across fields, such as
    counters that must tile a filter); lines charge that to the last line
    its description read, JSON to the member path it read.  A line refusal
    is a {!Parse_error}.  A constructor that raises [Invalid_argument] on
    an out-of-range value is left to raise it. *)

type error = { line : int; reason : string }

exception Parse_error of error

val error_to_string : error -> string

(** {2 Descriptions}

    The nodes are private: only this module builds them, and any walker
    matches on them. *)

module View : sig
  type _ prim = private
    | Int : int prim
    | Float : float prim
    | Bool : bool prim
    | String : string prim
    | Int64 : int64 prim

  type _ t = private
    | Leaf : string * 'a prim -> 'a t
    | Constant : string * 'a prim * 'a -> unit t
    | Option : string * string * 'a t -> 'a option t
        (** the key and the line rendering's [has_key] flag *)
    | Section : string * 'a t -> 'a t
    | Repeat : string * 'a t -> 'a list t
    | Exactly : int * 'a t -> 'a list t
    | All : 'a t list -> 'a list t
    | Conv : 'a t * ('a -> 'b) * ('b -> 'a) -> 'b t
    | Cases : { what : string; key : string option; cases : 'a case list } -> 'a t
    | Record : ('r, 'r) fields -> 'r t
    | Delay : (unit -> 'a t) -> 'a t

  and 'a case = private Case : string * 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

  and (_, _) fields = private
    | Field : 'a t * ('r -> 'a) -> ('r, 'a) fields
    | Rest : 'a t * ('r -> (string * 'a) list) -> ('r, (string * 'a) list) fields
    | Map : ('r, 'a) fields * ('a -> 'b) -> ('r, 'b) fields
    | Both : ('r, 'a) fields * ('r, 'b) fields -> ('r, 'a * 'b) fields
    | Bind : ('r, 'a) fields * ('a -> ('r, 'b) fields) -> ('r, 'b) fields
end

type 'a t = 'a View.t
(** How a value of type ['a] is laid out. *)

(** A leaf is one [key value] line: a bool as [1] or [0], a string on
    one line (encoding a newline raises [Invalid_argument]).  JSON writes
    an int64 as a string. *)

val int : string -> int t
val float : string -> float t
val bool : string -> bool t
val string : string -> string t
val int64 : string -> int64 t

val constant : 'a t -> 'a -> unit t
(** [constant (float key) v] writes [v] and refuses any other text on
    decode — for a parameter the program only ever runs with [v].  A
    float must hold the same bits.  @raise Invalid_argument unless the
    description is a single field. *)

val option : string -> 'a t -> 'a option t
(** [option key d]: in lines a [has_key] flag, then the value if any; in
    JSON the member [key], left out when [None]. *)

val section : string -> 'a t -> 'a t
(** A [[name]] marker line, then the value; in JSON an object of the
    value's members. *)

val repeat : string -> 'a t -> 'a list t
(** A [key n] count line, then [n] values; in JSON a list. *)

val exactly : int -> 'a t -> 'a list t
(** [exactly n d] is [n] values with no count line, for a count an earlier
    field gives (behind a [let*]): a negative [n] is refused.  Values are
    read one at a time, so a count larger than the document runs out of
    lines instead of allocating [n] of anything.  Encoding a list of
    another length raises [Invalid_argument]. *)

val all : 'a t list -> 'a list t
(** One value of each description, in order, with no count line.
    Encoding a list of another length raises [Invalid_argument]. *)

val enum : what:string -> string -> ('a * string) list -> 'a t
(** [enum ~what key codes] writes a value's string code; decoding an
    unknown code is refused as [unknown <what> "code"]. *)

val int_enum : what:string -> string -> ('a * int) list -> 'a t
(** {!enum} with int codes. *)

val conv : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t
(** [conv decode encode d]: [decode] may {!refuse}. *)

val case : string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a View.case
(** [case tag d inject project]: the values [project] maps to [Some] are
    written under [tag]. *)

val cases : what:string -> ?key:string -> 'a View.case list -> 'a t
(** A tagged union: the tag as a [key tag] line, then the case's value
    (in JSON the member [key], then the case's members).  Without [key]
    the tag is a [[tag]] section marker; JSON writes no tag and reads the
    value with the first case that reads it.  An unknown tag is refused as
    [unknown <what> ...]. *)

val delay : (unit -> 'a t) -> 'a t
(** A description made afresh for each encode and decode — for a decode
    that needs state of its own, such as a task's storage. *)

exception Refused of string
(** What {!refuse} raises; an interpreter catches it to say where. *)

val refuse : string -> 'a
(** Refuse a value from inside a {!conv}, a record builder or a [let*]
    continuation. *)

(** {3 Records}

    {[
      record
        (let+ a = field (int "a") (fun r -> r.a)
         and+ b = field (float "b") (fun r -> r.b) in
         { a; b })
    ]}

    Fields are written and read in the order they appear.  A [let+]
    builder runs on decode only.  [let*] makes the rest of a record depend
    on a value read before it; on encode its left side is taken from the
    record being written, so it should only select fields. *)

val field : 'a t -> ('r -> 'a) -> ('r, 'a) View.fields
val ( let+ ) : ('r, 'a) View.fields -> ('a -> 'b) -> ('r, 'b) View.fields
val ( and+ ) : ('r, 'a) View.fields -> ('r, 'b) View.fields -> ('r, 'a * 'b) View.fields
val ( let* ) : ('r, 'a) View.fields -> ('a -> ('r, 'b) View.fields) -> ('r, 'b) View.fields
val rest : 'a t -> ('r -> (string * 'a) list) -> ('r, (string * 'a) list) View.fields
(** JSON only: the members no field before it names, in order. *)

val record : ('r, 'r) View.fields -> 'r t

val pair : 'a t -> 'b t -> ('a * 'b) t
(** The record of two fields. *)

(** {2 Lines} *)

val encode : 'a t -> 'a -> string

val decode : 'a t -> string -> 'a
(** The one value a whole document holds.
    @raise Parse_error on a refusal, a document that ends early, or lines
    after the value. *)

val decode_sequence : 'a t -> string -> 'a list
(** The values of an append-only document, back to back.  A last value
    that runs out of lines is a torn append and is dropped; any refusal,
    wherever it sits, raises {!Parse_error}. *)

(** {2 Sealed documents} *)

val seal : magic:string -> string -> string
val unseal : magic:string -> string -> (string, string) result
