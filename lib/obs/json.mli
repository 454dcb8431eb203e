(** Minimal JSON values, and the JSON interpreter of
    {!Dream_util.Codec}'s descriptions.

    Emission and parsing live together so every byte the subsystem writes
    can be read back by the same code (the [inspect] subcommand and the CI
    JSONL validator both go through {!of_string}).

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

(** {1 Documents}

    A document is described once, as a {!Dream_util.Codec.t}; {!encode}
    and {!decode} are its JSON walks, and {!Dream_util.Codec.encode} and
    {!Dream_util.Codec.decode} its line rendering.  Members are written in the order their fields appear
    (see {!Dream_util.Codec} for what each node is in JSON).  A reader
    ignores members its record does not name, unless it has a
    {!Dream_util.Codec.rest}, and reads an [int] where a [float] is
    described. *)

val encode : 'a Dream_util.Codec.t -> 'a -> t
(** @raise Invalid_argument on a line-only node. *)

val decode : 'a Dream_util.Codec.t -> t -> ('a, string) result
(** Every refusal is an [Error] naming the member path it was found under
    ([metrics[2].value: unexpected null]): a missing member, a value of
    the wrong type, an unknown tag or code, a changed constant, or a
    {!Dream_util.Codec.refuse} from a conv or a record builder.  A
    line-only node raises [Invalid_argument], as in {!encode}. *)
