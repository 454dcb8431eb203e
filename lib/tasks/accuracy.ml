type t = { global : float; locals : float array }

let local t b = t.locals.(b)

let overall t b = Float.max t.global (local t b)

let clamp v = if v < 0.0 then 0.0 else if v > 1.0 then 1.0 else v
