module Prefix = Dream_prefix.Prefix

type t = { addr : Prefix.address; volume : float }

let make ~addr ~volume = { addr; volume }

let rec sorted_distinct = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> a.addr < b.addr && sorted_distinct rest
