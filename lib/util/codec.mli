(** Deterministic line-oriented serialization for checkpoints and journals.

    Documents are plain text: [[section]] markers and [key value] lines.
    Floats are emitted as hex literals so every double round-trips
    bit-exactly; {!seal} wraps a body with a version magic and an MD5
    checksum that {!unseal} verifies before any parsing happens. *)

type error = { line : int; reason : string }

exception Parse_error of error

val parse_error : int -> string -> 'a
(** @raise Parse_error always. *)

val error_to_string : error -> string

(** {2 Writing} *)

type writer

val writer : unit -> writer
val contents : writer -> string
val section : writer -> string -> unit
val string : writer -> string -> string -> unit
val int : writer -> string -> int -> unit
val bool : writer -> string -> bool -> unit
val float : writer -> string -> float -> unit
val int64 : writer -> string -> int64 -> unit

(** {2 Reading}

    Readers are strictly sequential: every [*_field] call consumes one line
    and raises {!Parse_error} when the key (or section) does not match, so
    encoder and decoder stay structurally symmetric. *)

type reader

val reader_of_string : string -> reader
val at_end : reader -> bool

val skip_line : reader -> unit
(** Advance past the next line without interpreting it (used when scanning
    forward after a parse failure to classify torn vs corrupt input). *)

val peek_section : reader -> string option
val expect_section : reader -> string -> unit
val string_field : reader -> string -> string
val int_field : reader -> string -> int
val bool_field : reader -> string -> bool
val float_field : reader -> string -> float
val int64_field : reader -> string -> int64

val constant : (writer -> string -> 'a -> unit) -> reader -> string -> 'a -> unit
(** [constant write r key v] consumes a field whose value must be the one
    [write w key v] writes — for a parameter the program only ever runs
    with [v], so a document carrying any other value is refused.  Floats
    are written as hex literals, so a float must hold the same bits. *)

val repeat : int -> (unit -> 'a) -> 'a list
(** [repeat n f] calls [f] exactly [n] times in order and collects the
    results — use for count-prefixed record lists where the evaluation
    order of [List.init] would be unsafe. *)

(** {2 Sealed documents} *)

val seal : magic:string -> string -> string
val unseal : magic:string -> string -> (string, string) result
