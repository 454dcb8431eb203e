(** Deterministic line-oriented serialization for checkpoints and journals.

    Documents are plain text: [[section]] markers and [key value] lines.
    Floats are written as hex literals so every double round-trips
    bit-exactly; {!seal} wraps a body with a version magic and an MD5
    checksum that {!unseal} verifies before any parsing happens.

    A record's layout is written once, as a typed description ['a t];
    {!encode} and {!decode} are the two walks over it, so every field is
    named once and the writer and reader cannot disagree on order.  A
    module exports one description per record (or a function of the
    context its decode needs, such as a task's storage).

    Refusals live in the descriptions: a field whose text is not a value
    of its type, a wrong key or section, an unknown code, a count below 0
    or a changed constant is refused at its own line, and a {!conv}, a
    record builder or a [let*] continuation that calls {!refuse} (a check
    across fields, such as counters that must tile a filter) is refused
    at the last line its description read, so the line where that record
    ends.  Every refusal
    is a {!Parse_error} carrying that line.  A constructor that raises
    [Invalid_argument] on an out-of-range value is left to raise it. *)

type error = { line : int; reason : string }

exception Parse_error of error

val error_to_string : error -> string

(** {2 Descriptions} *)

type 'a t
(** How a value of type ['a] is laid out as lines. *)

val int : string -> int t
(** [int key] is one [key value] line. *)

val float : string -> float t
(** Written as a hex literal. *)

val bool : string -> bool t
(** Written as [1] or [0]. *)

val string : string -> string t
(** A single-line value; encoding a newline raises [Invalid_argument]. *)

val int64 : string -> int64 t

val constant : 'a t -> 'a -> unit t
(** [constant (float key) v] writes [v] and refuses any other text on
    decode — for a parameter the program only ever runs with [v].  A
    float must hold the same bits.  @raise Invalid_argument unless the
    description is a single field. *)

val option : string -> 'a t -> 'a option t
(** [option name d] writes a [has_name] flag, then the value if any. *)

val section : string -> 'a t -> 'a t
(** A [[name]] marker line, then the value. *)

val repeat : string -> 'a t -> 'a list t
(** [repeat key d] writes a [key n] count line, then [n] values. *)

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

type 'a case

val case : string -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag d inject project]: the values [project] maps to [Some] are
    written under [tag]. *)

val cases : what:string -> ?key:string -> 'a case list -> 'a t
(** A tagged union: the tag as a [key tag] line, or without [key] as a
    [[tag]] section marker, then the case's value.  An unknown tag is
    refused as [unknown <what> ...]. *)

val delay : (unit -> 'a t) -> 'a t
(** A description made afresh for each encode and decode — for a decode
    that needs state of its own, such as a task's storage. *)

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

type ('r, 'a) fields

val field : 'a t -> ('r -> 'a) -> ('r, 'a) fields
val ( let+ ) : ('r, 'a) fields -> ('a -> 'b) -> ('r, 'b) fields
val ( and+ ) : ('r, 'a) fields -> ('r, 'b) fields -> ('r, 'a * 'b) fields
val ( let* ) : ('r, 'a) fields -> ('a -> ('r, 'b) fields) -> ('r, 'b) fields
val record : ('r, 'r) fields -> 'r t

val pair : 'a t -> 'b t -> ('a * 'b) t
(** The record of two fields. *)

(** {2 Walks} *)

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
