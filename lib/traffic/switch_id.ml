type t = int

module Set = Set.Make (Int)
module Map = Map.Make (Int)
