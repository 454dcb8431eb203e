type t = float array

let create k = Array.make (k + 1) 1.0

let global = 0

let[@inline] local b = b + 1
