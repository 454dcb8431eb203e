(* [Dream_prefix.Prefix] plus the prefix-tree walks and orderings that only
   the tests and the reference oracles use.  The program works on packed
   keys ({!Dream_prefix.Prefix.key}); these rebuild the boxed steps from
   [bits], [length] and [make]. *)

include Dream_prefix.Prefix

let is_exact t = length t = address_bits
let is_ancestor_of a b = length a < length b && covers a b
let parent t = if length t = 0 then None else Some (ancestor_at t (length t - 1))

let left_child t = if is_exact t then None else Some (make ~bits:(bits t) ~length:(length t + 1))

let right_child t =
  if is_exact t then None
  else Some (make ~bits:(bits t lor (1 lsl (address_bits - length t - 1))) ~length:(length t + 1))

let children t =
  match (left_child t, right_child t) with Some l, Some r -> Some (l, r) | _, _ -> None

let sibling t =
  if length t = 0 then None
  else Some (make ~bits:(bits t lxor (1 lsl (address_bits - length t))) ~length:(length t))

(* The longest prefix covering both. *)
let common_ancestor a b =
  let rec go len = if covers (ancestor_at a len) b then ancestor_at a len else go (len - 1) in
  go (min (length a) (length b))

(* Keys order like prefixes: first address, then length. *)
let compare a b = Int.compare (key a) (key b)
let equal a b = key a = key b
