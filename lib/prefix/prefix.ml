type address = int

let address_bits = 32

let address_space = 1 lsl address_bits

type t = { bits : int; length : int }

let mask length = if length = 0 then 0 else lnot ((1 lsl (address_bits - length)) - 1) land (address_space - 1)

let make ~bits ~length =
  if length < 0 || length > address_bits then invalid_arg "Prefix.make: length out of [0, 32]";
  if bits < 0 || bits >= address_space then invalid_arg "Prefix.make: bits out of [0, 2^32)";
  { bits = bits land mask length; length }

let root = { bits = 0; length = 0 }

let of_address addr = make ~bits:addr ~length:address_bits

let bits t = t.bits

let length t = t.length

let wildcard_bits t = address_bits - t.length

let size t = 1 lsl wildcard_bits t

let first_address t = t.bits

let last_address t = t.bits lor ((1 lsl wildcard_bits t) - 1)

let contains t addr = addr land mask t.length = t.bits

let covers a b = a.length <= b.length && b.bits land mask a.length = a.bits

let covers_bits ~abits ~alen ~bbits ~blen =
  alen <= blen && (abits lxor bbits) lsr (address_bits - alen) = 0

let ancestor_at t len =
  if len > t.length then invalid_arg "Prefix.ancestor_at: requested length exceeds prefix length";
  { bits = t.bits land mask len; length = len }

let nth_descendant t ~length:len i =
  if len < t.length then invalid_arg "Prefix.nth_descendant: length shorter than prefix";
  if len > address_bits then invalid_arg "Prefix.nth_descendant: length exceeds 32";
  let count = 1 lsl (len - t.length) in
  if i < 0 || i >= count then invalid_arg "Prefix.nth_descendant: index out of range";
  { bits = t.bits lor (i lsl (address_bits - len)); length = len }

let compare a b =
  let c = Int.compare a.bits b.bits in
  if c <> 0 then c else Int.compare a.length b.length

(* A prefix packed into one int, [first address lsl 6 lor length]: keys
   order exactly like [compare] (first address, then length), so a sorted
   key column is a sorted prefix list with nothing boxed. *)
let[@inline] key_of ~bits ~length = (bits lsl 6) lor length

let key t = key_of ~bits:t.bits ~length:t.length

let[@inline] key_bits key = key lsr 6

let[@inline] key_length key = key land 63

let[@inline] key_last key = key_bits key lor ((1 lsl (address_bits - key_length key)) - 1)

let of_key key = make ~bits:(key_bits key) ~length:(key_length key)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d/%d"
    ((t.bits lsr 24) land 0xff)
    ((t.bits lsr 16) land 0xff)
    ((t.bits lsr 8) land 0xff)
    (t.bits land 0xff)
    t.length

let of_string s =
  let fail () = invalid_arg (Printf.sprintf "Prefix.of_string: malformed prefix %S" s) in
  match String.split_on_char '/' s with
  | [ quad; len ] -> begin
    match String.split_on_char '.' quad with
    | [ a; b; c; d ] -> begin
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d, int_of_string_opt len) with
      | Some a, Some b, Some c, Some d, Some len
        when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256 && d >= 0 && d < 256 ->
        let bits = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d in
        if len < 0 || len > address_bits then fail () else make ~bits ~length:len
      | _, _, _, _, _ -> fail ()
    end
    | _ -> fail ()
  end
  | _ -> fail ()

let pp ppf t = Format.pp_print_string ppf (to_string t)

let codec key = Dream_util.Codec.(conv of_string to_string (string key))

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
