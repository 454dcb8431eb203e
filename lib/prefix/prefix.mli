(** IPv4 prefixes.

    A prefix is the set of 32-bit addresses sharing its first [length] bits.
    Prefixes are the unit of TCAM measurement in DREAM: a task monitors a
    set of prefixes and drills down or merges within the prefix trie rooted
    at its flow filter.  Addresses are plain [int]s in \[0, 2^32). *)

type t
(** A prefix; immutable.  The underlying bits below [length] are always
    zero, so structural equality coincides with semantic equality. *)

type address = int
(** A 32-bit IPv4 address stored in an OCaml int. *)

val address_bits : int
(** Width of the address space: 32. *)

val make : bits:int -> length:int -> t
(** [make ~bits ~length] is the prefix whose first [length] bits are the
    high-order bits of [bits]; low-order bits are masked off.
    @raise Invalid_argument if [length] is outside \[0, 32\] or [bits] is
    outside \[0, 2^32). *)

val root : t
(** The zero-length prefix covering the whole address space. *)

val of_address : address -> t
(** The /32 prefix containing exactly [address]. *)

val bits : t -> int
(** High-order bits, right-padded with zeros to 32 bits. *)

val length : t -> int
(** Prefix length in \[0, 32\]. *)

val wildcard_bits : t -> int
(** [32 - length t]: the number of free bits, i.e. [log2] of the number of
    addresses covered. *)

val size : t -> int
(** Number of addresses covered: [2 ^ wildcard_bits]. *)

val first_address : t -> address
val last_address : t -> address
(** Inclusive address range covered by the prefix. *)

val contains : t -> address -> bool

val covers : t -> t -> bool
(** [covers a b] is true when [a = b] or [a] is an ancestor of [b]. *)

val covers_bits : abits:int -> alen:int -> bbits:int -> blen:int -> bool
(** {!covers} on prefixes given as ({!bits}, {!length}) pairs, for walks
    that track trie nodes without building prefixes. *)

val ancestor_at : t -> int -> t
(** [ancestor_at p len] is the length-[len] prefix containing [p].
    @raise Invalid_argument if [len > length p]. *)

val nth_descendant : t -> length:int -> int -> t
(** [nth_descendant p ~length i] is the [i]-th (in address order) descendant
    of [p] with the given length.  @raise Invalid_argument if [length <
    length p] or [i] is out of range. *)

(** {2 Packed keys}

    A prefix packed into one int, [first_address lsl 6 lor length].  Keys
    order by first address, then by length (shorter first), which is
    also the order of {!Map} and {!Set}, so the monitor's counter table, the
    TCAM's rule columns and the counter reads between them are sorted int
    columns, with no prefix built. *)

val key_of : bits:int -> length:int -> int
(** The key of the prefix with these {!bits} and {!length} (not
    validated: [bits] must already be masked to [length]). *)

val key : t -> int

val of_key : int -> t
(** Inverse of {!key}.  @raise Invalid_argument on a key no prefix has. *)

val key_bits : int -> int
(** {!bits} of a key's prefix. *)

val key_length : int -> int
(** {!length} of a key's prefix. *)

val key_last : int -> address
(** {!last_address} of a key's prefix. *)

val to_string : t -> string
(** Dotted-quad with length, e.g. ["10.32.0.0/12"]. *)

val of_string : string -> t
(** Inverse of [to_string].  @raise Invalid_argument on malformed input. *)

val codec : string -> t Dream_util.Codec.t
(** A prefix as one [key a.b.c.d/len] line; a malformed one raises
    [Invalid_argument] on decode. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
