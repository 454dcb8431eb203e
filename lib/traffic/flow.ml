module Prefix = Dream_prefix.Prefix

type t = { addr : Prefix.address; volume : float }

let make ~addr ~volume = { addr; volume }

let rec sorted_distinct = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> a.addr < b.addr && sorted_distinct rest

let combine flows =
  let sorted = List.sort (fun a b -> Int.compare a.addr b.addr) flows in
  let rec merge = function
    | [] -> []
    | [ f ] -> [ f ]
    | a :: b :: rest ->
      if a.addr = b.addr then merge ({ addr = a.addr; volume = a.volume +. b.volume } :: rest)
      else a :: merge (b :: rest)
  in
  merge sorted
