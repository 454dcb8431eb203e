type t = float option

let restore ~history ~avg =
  if history < 0.0 || history >= 1.0 then invalid_arg "Ewma.restore: history must be in [0, 1)";
  avg

let value t = t

let codec ~history =
  Codec.(
    record
      (let+ avg = field (option "avg" (float "avg")) value in
       restore ~history ~avg))
